(** The Waffinity message scheduler.

    Messages are posted with a target {!Affinity.t}; the scheduler starts
    a message only when no conflicting affinity (ancestor, descendant or
    the same instance) is executing and a worker-thread slot is free.
    Non-conflicting messages run concurrently, bounded by [workers] (the
    Waffinity thread count, normally one per core).

    Message bodies run in fiber context and may charge CPU with
    [Engine.consume]; they must not park (a real Waffinity message runs
    to completion), which the scheduler asserts.

    Pending messages are granted in FIFO arrival order, skipping those
    whose affinity is blocked — the "scheduler enforces execution
    exclusivity" behaviour of §III-D. *)

type t

val create :
  ?workers:int ->
  ?isolation:Isolation.t ->
  ?obs:Wafl_obs.Trace.t ->
  Wafl_sim.Engine.t ->
  cost:Wafl_sim.Cost.t ->
  unit ->
  t
(** [workers] defaults to the engine's core count.  When [isolation] is
    given, every message fiber is registered with the checker for its
    lifetime, so [Engine.probe] calls from message context are validated
    against the message's affinity (see {!Isolation}).  [obs] (default
    disabled) wraps each message body in a ["msg <kind>"] span.  The
    engine's registry gets queue-wait and service-time histograms per
    affinity kind (["sched.wait_us.<kind>"], ["sched.service_us.<kind>"],
    the latter registered at a kind's first completion and observed once
    per completed message), the completed-message counter
    ["sched.messages"], and queue depth gauges. *)

val isolation : t -> Isolation.t option

val set_chaos_misattribute : t -> Affinity.t option -> unit
(** Test-only chaos hook (compare [Wafl_storage.Fault.chaos]): the next
    posted message is granted and checked under the given affinity
    instead of its own — simulating a message posted to the
    wrong affinity, i.e. a dropped isolation guard.  The sanitizers must
    catch the resulting violation. *)

val post : t -> affinity:Affinity.t -> label:string -> (unit -> unit) -> unit
(** Fire-and-forget message.  [label] is the CPU accounting class the
    body's work is charged to. *)

val post_wait : t -> affinity:Affinity.t -> label:string -> (unit -> 'a) -> 'a
(** Post and park until the message completes; returns the body's result.
    Must be called from fiber context (and not from inside another
    message whose affinity conflicts — that would deadlock, as in the
    real system). *)

val drain : t -> unit
(** Park until no message is queued or executing. *)

