(** Per-volume quality of service: token-bucket rate limits with a
    bounded admission queue and deterministic shedding.

    Each volume (tenant) gets its own {!Token_bucket} with the same
    configured rate.  {!admit} classifies an arriving op: run now, run
    after a deterministic queueing delay (the bucket's debt), or shed
    because the queue is full.  Everything is a pure function of the
    arrival sequence, so QoS-on runs replay byte-identically per seed.

    Fair CP admission lives in {!Fair} (used by the CP engine via
    [Walloc.config.fair_cp]); this module covers the arrival side. *)

type config = {
  rate_per_s : float;  (** per-volume sustained admission rate (ops per virtual second) *)
  burst : float;  (** bucket capacity: ops admitted back-to-back after idle *)
  queue_depth : int;  (** max ops queued (delayed) per volume before shedding *)
}

val default_config : config
(** 50 k ops/s per volume, burst 64, queue depth 256. *)

type t

val create : ?eng:Wafl_sim.Engine.t -> config -> t
(** [eng] is the sanitizer probe target: when given, every {!admit}
    declares its touch of the shared bucket state
    ([probe_atomic], never reported — admission order is fixed by the
    deterministic arrival process, not by affinity ownership).  Omit it
    in engine-less unit tests. *)

val admit : t -> vol:int -> now:float -> [ `Admit | `Delay of float | `Shed ]
(** Classify an op arriving at virtual time [now] for volume [vol].
    [`Delay d] reserves the slot — the caller must start the op after [d]
    virtual µs, not re-ask. *)

val bucket_state : t -> vol:int -> (float * float) option
(** [(tokens, last_update)] of the volume's bucket, if it exists yet —
    for the same-seed identity tests. *)
