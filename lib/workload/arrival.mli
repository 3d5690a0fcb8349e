(** Open-loop arrival processes (DESIGN.md §4.11).

    The closed-loop clients of {!Driver} model Fibre-Channel hosts that
    wait for each reply; overload experiments instead need {e open-loop}
    tenants whose offered load does not slacken when the server slows
    down.  A [process] describes one tenant's arrival stream as pure data
    (rates in client operations per virtual {e second}); {!start} turns it
    into a deterministic generator yielding inter-arrival gaps in virtual
    microseconds.

    Processes are plain structural data so driver specs embedding them
    remain comparable — [Exp.run]'s per-context run table keys on whole
    specs. *)

type process =
  | Poisson of { rate : float }  (** memoryless arrivals at [rate] ops/s *)
  | Bursty of {
      base_rate : float;  (** ops/s in the off (quiet) phase; may be 0 *)
      burst_rate : float;  (** ops/s in the on (burst) phase *)
      mean_on_us : float;  (** mean burst duration, virtual µs *)
      mean_off_us : float;  (** mean quiet duration, virtual µs *)
    }
      (** two-phase Markov-modulated Poisson process with exponential
          phase durations; generators begin in a burst phase *)
  | Diurnal of { peak_rate : float; floor : float; period_us : float }
      (** sinusoidal ramp: intensity sweeps between [floor * peak_rate]
          and [peak_rate] with period [period_us] (thinning construction,
          starting at the trough) *)

val validate : process -> unit
(** Raises [Invalid_argument] on nonsensical parameters (non-positive
    rates, [floor] outside [0,1], ...). *)

val mean_rate : process -> float
(** Time-average offered rate in ops per virtual second — used by the
    harness to size experiments against simulated NVLog drain rates. *)

val population : n:int -> total_rate:float -> alpha:float -> process list
(** Heavy-tailed multi-tenant population: [total_rate] split across [n]
    independent Poisson tenants with Zipf([alpha]) weights (tenant 1
    largest).  [alpha = 0.] is a uniform split. *)

type state

val start : process -> rng:Wafl_util.Rng.t -> state
(** Validates and binds the process to a random stream.  Same process and
    same-seeded rng give a byte-identical gap sequence. *)

val next : state -> now:float -> float
(** The gap, in virtual µs, from [now] to the next arrival.  [now] must
    not decrease across calls on one state. *)
