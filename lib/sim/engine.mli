(** Deterministic discrete-event simulator with effect-handler fibers.

    This is the many-core substitute for the paper's 20-core testbed (see
    DESIGN.md §1).  Simulated threads are OCaml 5 fibers; a configurable
    number of {e virtual cores} executes runnable fibers in virtual time.
    CPU work is charged explicitly with {!consume}; blocking primitives
    (see {!Sync}) park fibers, so contention, queueing and pipeline
    backpressure show up as virtual-time delays exactly as they would as
    wall-clock delays on real hardware.

    Scheduling model: non-preemptive per core with an optional quantum.
    A fiber keeps its core across {!consume} calls; it releases the core
    when it yields, sleeps, parks or finishes, or when a consume completes
    past the quantum while other fibers are runnable.  All queues are
    FIFO and event ties are broken by sequence number, so a run is a pure
    function of its inputs.

    Each engine owns its run's one {!Metrics} registry ({!metrics}):
    components built on the engine publish their counts there, whether
    or not a tracer records the run (DESIGN.md §4.8).

    All fiber-context functions ({!consume}, {!sleep}, {!yield}, ...)
    must be called from code running inside a fiber of the same engine;
    calling them elsewhere raises [Stdlib.Effect.Unhandled]. *)

type t
(** A simulation engine instance. *)

type fiber
(** Handle to a simulated thread. *)

type fbox = { mutable v : float }
(** A float cell stored flat: unlike a mutable float field of a mixed
    record, assigning [v] boxes no float and calls no write barrier.
    Counters updated on a hot path keep their totals in one. *)

val fiber_fifo : unit -> fiber Wafl_util.Fifo.t
(** An empty FIFO of fibers for a wait queue.  Its cleared slots hold a
    placeholder that is never popped, so a woken fiber is not kept
    alive by the queue it waited on. *)

val create : ?quantum:float -> ?sanitize:bool -> cores:int -> unit -> t
(** [create ~cores ()] makes an engine with [cores] virtual cores and an
    empty event queue at virtual time 0.  [quantum] (default [100.0]
    virtual microseconds, [0.0] disables) bounds how long a fiber may hold
    a core across consume boundaries while other work is runnable.

    [sanitize] (default [false]) attaches a {!Race} happens-before
    detector: the engine feeds it every scheduling edge, {!Sync}
    primitives add release/acquire edges, and {!probe} calls become
    live.  Probes never consume virtual time or schedule anything, so
    a sanitized run produces bit-identical results to an unsanitized
    one; with [sanitize:false] every probe is a single branch. *)

val cores : t -> int

val metrics : t -> Metrics.t
(** The engine's metrics registry, created empty with the engine.  Every
    component registers its instruments here; readers (the driver's
    measurement window, [Wafl_obs.Rollup], the tracer's samples) read
    it by name.  Engines never share a registry, so same-name instruments
    on two engines neither sum nor see each other. *)

val now : t -> float
(** Current virtual time in microseconds. *)

val spawn : t -> ?label:string -> ?daemon:bool -> ?at:float -> (unit -> unit) -> fiber
(** [spawn t ~label body] creates a fiber that becomes runnable now (or at
    virtual time [at]).  [label] (default ["other"]) is the accounting
    class charged for the fiber's CPU time; see {!busy}.

    [daemon] (default [false]) marks a long-lived service fiber — e.g. a
    scheduler worker — that legitimately parks forever between work items:
    daemons are excluded from {!live_fibers} and from {!stalled_fibers}
    diagnosis, so a run that ends with idle daemons parked still counts as
    having run to completion.

    O(1) amortized.  The engine registers the fiber until it finishes and
    keeps no reference to it afterwards, so a finished fiber is garbage
    once the caller drops the returned handle: the host heap grows with
    the fibers alive, not with the fibers ever spawned. *)

(** {1 Running} *)

val run : ?until:float -> t -> unit
(** Process events until the event queue and run queue are empty, or until
    virtual time would exceed [until] (the clock is then set to [until]
    and remaining events stay queued, so [run] can be called again to
    continue — this is how warmup/measurement windows are implemented). *)

val stalled_fibers : t -> (int * string) list
(** Non-daemon fibers that are parked with nothing left in the system to
    wake them; non-empty after a full [run] indicates a deadlock or a
    lost wakeup.  Returns [(id, label)] pairs, newest fiber first.  Walks
    only the unfinished fibers. *)

val live_fibers : t -> int
(** Non-daemon fibers spawned and not yet finished. *)

val pending_work : t -> bool
(** Whether anything remains to execute: queued events or runnable
    fibers.  False after a [run ~until] that went idle before the limit
    (parked daemons don't count).  The partitioned driver ({!Partition})
    uses this to decide when a partition has drained. *)

(** {1 Fiber context operations} *)

val consume : float -> unit
(** Occupy the current core for the given number of virtual microseconds. *)

val sleep : float -> unit
(** Release the core and become runnable again after the given delay. *)

val yield : unit -> unit
(** Release the core and requeue at the tail of the run queue. *)

val self : t -> fiber
(** The fiber currently executing on [t].  Raises [Invalid_argument] if no
    fiber is running (i.e. called from outside the simulation). *)

val set_label : t -> string -> unit
(** Change the accounting class of the current fiber; used by scheduler
    workers that execute messages of different classes. *)

val relabel : fiber -> string -> unit
(** Change the accounting class of an arbitrary fiber (it need not be
    running).  The Waffinity scheduler relabels a pooled worker to the
    granted message's label before waking it, so CPU charges and the
    dispatch observability hook see the message's class, exactly as if
    the message ran on a fresh fiber with that label. *)

val fiber_id : fiber -> int
val join : t -> fiber -> unit
(** Park until the given fiber finishes (returns immediately if it has). *)

(** {1 Low-level parking — used by {!Sync}} *)

val park : t -> unit
(** Park the current fiber unconditionally.  Some other fiber must hold a
    reference (obtained via {!self}) and call {!wake}. *)

val wake : t -> fiber -> unit
(** Make a parked fiber runnable.  Raises [Invalid_argument] if the fiber
    is not parked. *)

(** {1 CPU accounting} *)

val reset_accounting : t -> unit
(** Zero all per-label busy counters and restart the measurement window at
    the current virtual time. *)

val busy : t -> string -> float
(** Virtual microseconds of CPU consumed by fibers under the given label
    since the last {!reset_accounting}. *)

val cores_used : t -> string -> float
(** [busy t label] divided by the time since the last {!reset_accounting}
    (or since creation) — average number of cores the label kept
    busy, the unit in which the paper reports "core usage". *)

val utilization : t -> float
(** Total busy time across all labels divided by [cores * window]. *)

val context_switches : t -> int
(** Dispatches of a fiber onto a core since engine creation. *)

(** {1 Sanitizer support}

    See DESIGN.md §4.7.  All of these are no-ops (or return the empty
    value) unless the engine was created with [~sanitize:true]. *)

val sanitizing : t -> bool
val race : t -> Race.t option

val current_fid : t -> int
(** The running fiber's id, or {!Race.main_fid} outside fiber context.
    Unlike {!self} this never raises. *)

val probe : t -> shared:string -> Race.mode -> unit
(** Declare an access to the shared mutable state named [shared] from
    the current context; the race detector checks it against every
    concurrent access to the same id, and the access hook (the
    affinity-isolation checker, when wired) validates it against the
    running message's affinity. *)

val probe_atomic : t -> shared:string -> unit
(** Declare an operation on a structure that the real system protects
    with a lock or atomic whose cost this simulation does not model
    (buffer cache, nvlog, tetris dispatch, message queues): a paired
    release/acquire on a per-[shared] sync clock.  Never reports. *)

val probe_locked : t -> shared:string -> Race.mode -> unit
(** {!probe}, but performed inside an acquire/release pair on [shared]'s
    own sync clock: models data a per-item lock protects (a metafile
    buffer lock), where affinity rules prevent lock {e contention} rather
    than providing the only exclusion.  The access hook still validates
    the touch against the running affinity, but same-id accesses are
    serialized by the lock and never reported as races. *)

val set_access_hook : t -> (int -> string -> Race.mode -> unit) -> unit
(** Install the isolation checker's callback, invoked on every {!probe}
    with the running fiber id, shared id and mode.  It may raise to
    abort the run with a diagnostic. *)

val race_reports : t -> Race.report list
val race_report_count : t -> int

(** {1 Observability taps}

    Used by [Wafl_obs] to attribute CPU charges to span stacks and to
    drive virtual-time metric sampling.  Hooks run synchronously inside
    existing scheduling decisions; they must never consume virtual time
    or schedule events, so an instrumented run stays bit-identical to an
    uninstrumented one.  With no hooks installed each site is a single
    branch. *)

type obs_hooks = {
  on_consume : fid:int -> label:string -> amount:float -> now:float -> unit;
      (** A fiber charged [amount] virtual microseconds of CPU, beginning
          at virtual time [now]. *)
  on_switch : fid:int -> label:string -> now:float -> unit;
      (** A fiber was dispatched onto a core. *)
  on_wake : waker:int -> wakee:int -> now:float -> unit;
      (** [waker] made the parked fiber [wakee] runnable ({!wake}, or a
          finishing fiber releasing its {!join} waiters).  Every [Sync]
          waitq/channel wakeup funnels through here, so
          this is the engine-level causal edge for blocking handoffs. *)
  on_spawn : parent:int -> child:int -> now:float -> unit;
      (** [parent] spawned [child] ([Race.main_fid] when spawned from
          outside fiber context). *)
}

val set_obs_hooks : t -> obs_hooks -> unit
val clear_obs_hooks : t -> unit
