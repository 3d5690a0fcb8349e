(** Virtual-time span/event tracer with Chrome trace-event export.

    A tracer only records; it owns no metrics.  The run's registry
    belongs to its engine ({!Wafl_sim.Engine.metrics}), and components
    publish there whether or not a tracer records.  Three modes:
    off ({!disabled}, or {!metrics_only} bound to an engine), where every
    operation is a single branch and instrumented code is bit-identical
    to uninstrumented code; recording ({!create}), which records spans,
    instants and periodic samples of the engine's registry into a
    bounded ring buffer, all timestamped with the engine's virtual
    clock; and recording with causal edges ([create ~causal:true]).
    {!enabled} means "records", so instrumentation guards span arguments
    with it and builds none in an unrecorded run.

    Recording never consumes virtual time and never schedules events, so
    enabling tracing does not change simulation results; and because all
    recorded inputs are deterministic, two runs with the same seed export
    byte-identical traces.  See DESIGN.md §4.8. *)

type t

val disabled : t
(** The shared no-op tracer; the default everywhere instrumentation is
    threaded. *)

val create :
  ?ring_capacity:int -> ?sample_interval:float -> ?causal:bool -> Wafl_sim.Engine.t -> t
(** Attach a tracer to [eng].  Installs the engine's observability hooks
    (displacing any previously installed hooks), so at most one tracer
    should be attached per engine.  [ring_capacity] (default 262144;
    4194304 in causal mode, which records a multiple of the events)
    bounds retained events, oldest dropped first;
    [sample_interval] (default 10000.0 virtual microseconds) is the
    counter/gauge sampling period, [0.0] disables the timeseries.

    The tracer publishes its ring's drop count in the engine's registry
    as the pull counter ["trace.drops"], and samples that registry's
    counters and gauges.

    [causal] (default [false]) additionally records causal edges — flow
    events pairing every asynchronous handoff's source and destination —
    and stamps each span with its fiber's active request context; see
    {!Causal} and DESIGN.md §4.10. *)

val metrics_only : Wafl_sim.Engine.t -> t
(** A tracer bound to [eng] that records nothing: {!enabled} is false,
    no engine hooks are installed and {!metrics} is [eng]'s registry.
    Equivalent to {!disabled} for instrumentation. *)

val enabled : t -> bool
(** Whether the tracer records. *)

val causal : t -> bool
val engine : t -> Wafl_sim.Engine.t option

val metrics : t -> Metrics.t
(** The registry of the engine the tracer is bound to.  Raises
    [Invalid_argument] on {!disabled}, which has no engine.  Components
    read {!Wafl_sim.Engine.metrics} instead ([wafl_lint] flags this call
    in [lib/] outside [Wafl_obs]). *)

(** {1 Recording} *)

val with_span :
  t ->
  cat:string ->
  name:string ->
  ?args:(string * string) list ->
  ?num_args:(string * float) list ->
  (unit -> 'a) ->
  'a
(** Run the thunk inside a span: records a complete ('X') event covering
    its virtual-time extent on the current fiber, and attributes CPU
    charged within to the span stack (see {!profile_rows}).  The span is
    closed (and recorded) even if the thunk raises. *)

val instant : t -> cat:string -> name:string -> ?args:(string * string) list -> unit -> unit
(** Record a zero-duration instant ('i') event at the current virtual
    time. *)

val complete :
  t ->
  cat:string ->
  name:string ->
  ts:float ->
  dur:float ->
  ?args:(string * string) list ->
  ?num_args:(string * float) list ->
  unit ->
  unit
(** Record a complete ('X') event for an interval the caller measured
    itself — e.g. a RAID service time spanning sleeps, where a lexical
    {!with_span} does not fit. *)

val event_count : t -> int
val dropped : t -> int
(** The counts {!export_string} writes: the ring's events and drops, with the
    closing counter sample counted as if recorded. *)

(** {1 Causal edges}

    The low-level half of {!Causal}; instrumentation outside [Wafl_obs]
    must go through the [Causal] wrappers ([wafl_lint] enforces this), so
    every causal edge in a trace comes from one audited API.  All of
    these are single branches unless the tracer was created with
    [~causal:true]. *)

type handoff
(** A captured causal context plus the flow id of its edge, carried
    through an asynchronous handoff (a queued message, a cleaner work
    item, a RAID request). *)

val no_handoff : handoff
(** The shared empty handoff; what {!capture} returns when causal mode is
    off, and a valid field initializer for requests that never cross a
    traced edge. *)

val capture : t -> kind:string -> handoff
(** Record the source half ('s' flow event, named [kind]) of a causal
    edge on the current fiber and return its context for the consumer. *)

val restore : t -> kind:string -> handoff -> unit
(** Record the destination half ('f') of the edge on the current fiber
    and activate the captured context.  [kind] must match the capture. *)

val with_root : t -> (unit -> 'a) -> 'a
(** Run the thunk under a fresh causal context (a new request root); the
    fiber's previous context is restored afterwards. *)

val fiber_reset : t -> unit
(** Clear the current fiber's causal context.  Pooled worker fibers call
    this between messages so one message's context cannot attach to the
    next.  (Spans need no reset: {!with_span} is the only way to open
    one, and it closes on return or raise.) *)

(** {1 Export} *)

val export_string : t -> string
(** The whole trace as Chrome trace-event JSON
    ([{"traceEvents": [...], ...}]), loadable in Perfetto or
    chrome://tracing.  Timestamps and durations are virtual microseconds,
    [tid] is the fiber id, and counter samples appear as 'C' events.
    The document ends with a closing sample of every metric, counted as
    if the ring had recorded it, but the ring is left as it is: two
    exports of one tracer are equal. *)

(** {1 Virtual-CPU profile} *)

val profile_rows : t -> (string * float * int) list
(** [(span-stack path, total virtual us charged, number of charges)],
    sorted by total descending (path ascending on ties).  Charges made
    outside any span are attributed to ["fiber:<label>"]. *)

val profile_table : ?top:int -> t -> string
(** Rendered top-[top] (default 20) rows of {!profile_rows} with a
    percentage-of-total column. *)
