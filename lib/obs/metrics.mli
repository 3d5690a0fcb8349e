(** Alias of {!Wafl_sim.Metrics}, the registry every engine owns
    ({!Wafl_sim.Engine.metrics}).  Kept so code written against
    [Wafl_obs.Metrics] still compiles; its types are equal to the
    originals. *)

include module type of struct
  include Wafl_sim.Metrics
end
