(** Noisy-neighbor overload experiment (DESIGN.md §4.11).

    Open-loop tenants on their own volumes: one bursty hot tenant
    offering load far above the CP drain rate next to three trickling
    victims.  NVLog watermark back-pressure is always on; per-volume QoS
    is the variable.  The three scenarios give the tenant-isolation
    curves: victims alone (baseline tail), noisy with QoS off (victim
    tail and hot backlog grow without bound), and noisy with QoS on
    (hot tenant throttled and shed; victims near baseline). *)

type scenario = Isolated | Noisy_off | Noisy_on

val scenario_name : scenario -> string

type row = {
  scenario : scenario;
  r : Wafl_workload.Driver.result;
  victim_whist : Wafl_util.Histogram.t;
      (** merged end-to-end write latency of all victim tenants *)
}

val run : Exp.ctx -> row list
(** All three scenarios, deterministic per seed (the spec seed comes from
    {!Exp.spec_base}). *)

val goodput : row -> float
(** Completed windowed ops per virtual second. *)

val shed_rate : row -> float
(** Shed fraction of windowed arrivals, 0..1. *)

val victim_p99 : row -> float
(** p99 of the merged victim write-latency histogram, virtual µs. *)

val print : row list -> unit
val shapes : row list -> (string * bool) list
