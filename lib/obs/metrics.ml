(* [Wafl_obs.Metrics] is the engine-owned registry module, re-exported
   under its historical name: the same types and functions, not a copy. *)
include Wafl_sim.Metrics
