(** Conservative-lookahead partitioned DES.

    A partitioned run shards one simulation across [K] independently
    clocked {!Engine} instances (one per aggregate / volume group) and
    advances them window by window: within a virtual-time window
    [[W, W + lookahead)] every partition executes independently —
    concurrently on worker domains when the run was given more than one
    — and cross-partition interaction travels only through {!post},
    which delivers a closure to its destination at least [lookahead]
    after the sender's clock.  That is the classic conservative PDES
    guarantee: nothing sent during a window can affect that same
    window, so no partition ever observes an event out of order and
    there is nothing to roll back.

    Determinism: each partition's window execution is an ordinary
    sequential {!Engine.run}; pending deliveries are injected before
    the window that contains them, sorted by [(deliver time, source
    partition, per-source send seq)], so the destination engine's FIFO
    tie-break sees one well-defined event sequence.  The whole run is
    therefore a pure function of the initial spawns and seeds —
    byte-identical at any domain count, verified by the replay-identity
    tests in test_domains.ml.

    The sync points this models are the coarse ones the paper's
    architecture already serializes — aggregate-wide CP barriers, NVLog
    watermark broadcasts, RAID-group handoffs — whose real latencies
    are comfortably above a millisecond-scale lookahead. *)

type t

val create : parts:int -> cores_per_part:int -> lookahead:float -> unit -> t
(** [create ~parts ~cores_per_part ~lookahead ()] builds [parts]
    engines, each with [cores_per_part] virtual cores, all at virtual
    time 0.  [lookahead] (virtual µs, > 0) is the window length and the
    minimum cross-partition delivery delay.  Each engine has
    {!Engine.create}'s default quantum and does not sanitize. *)

val engine : t -> int -> Engine.t
(** The partition's engine, for initial spawns and end-of-run reads.
    During {!run} it must only be touched from fibers of that same
    partition. *)

val now : t -> float
(** The completed horizon: every partition's clock has reached it. *)

val post : t -> src:int -> dst:int -> delay:float -> (unit -> unit) -> unit
(** [post t ~src ~dst ~delay fn] (from a fiber of partition [src], or
    from the host between {!run} calls — every partition is then parked
    at the horizon) schedules [fn] to run as a fresh fiber of partition
    [dst] at virtual time [Engine.now (engine t src) +. delay].  Raises
    [Invalid_argument] if [delay < lookahead t] — the conservative
    bound — or if [dst] is out of range.  [src = dst] is allowed (the
    bound still applies).  Delivery order at equal virtual time is
    fixed by (source partition, per-source send sequence). *)

val run : ?domains:int -> until:float -> t -> unit
(** Advance every partition to virtual time [until], window by window.
    [domains] (default 1) is the worker-domain count for the window
    fan-out (a persistent {!Wafl_util.Pool.team} for the whole call).
    If every partition drains early (no queued events, no pending
    deliveries), the clocks jump straight to [until].  May be called
    repeatedly with increasing [until] (warmup / measurement
    windows). *)
