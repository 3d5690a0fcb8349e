(** Shared infrastructure for the paper-reproduction experiments.

    Every experiment runs under a {!ctx}: the scale factor (1.0
    reproduces the default measurement windows; smaller values shrink
    warmup/measure windows and working sets proportionally for quick
    smoke runs), the worker-domain fan-out, and the observe-only
    attachments every run gets.  The caller builds one context and passes
    it down; nothing here is process-wide. *)

val of_env : unit -> float
(** Scale factor from the environment: [WAFL_SCALE] (a positive number),
    1.0 when unset or empty.
    @raise Invalid_argument naming the variable when a value is malformed
    (e.g. [WAFL_SCALE=0,25]). *)

type record = {
  result : Wafl_workload.Driver.result;
  wall_s : float;  (** host seconds the run took, by the context's clock *)
}
(** One executed spec.  Its final virtual clock is
    [result.Driver.virtual_us]. *)

type ctx
(** Immutable settings plus the run table they share. *)

val context :
  ?domains:int ->
  ?sanitize:bool ->
  ?telemetry:Wafl_workload.Driver.telemetry ->
  ?obs:(Wafl_sim.Engine.t -> Wafl_obs.Trace.t) ->
  ?clock:(unit -> float) ->
  scale:float ->
  unit ->
  ctx
(** A fresh context with an empty run table.
    - [domains] (default 1): {!par_map} executes up to this many rows
      concurrently.  Pass 1 when [obs] captures "the last run's" tracer,
      which only means something when rows start in order.
    - [sanitize]: every run executes under the race detector and
      isolation checker.  Results are bit-identical either way; any
      report is a bug.
    - [telemetry]: every run attaches fleet rollups and the health
      watchdog.  Observe-only.
    - [obs]: tracer factory attached to every run; capture the tracer
      via a [ref] inside the closure to export it afterwards.  Tracing
      never changes results.
    - [clock] (default: always 0): host wall clock for {!record.wall_s}.
      The library reads no wall clock itself. *)

val scale : ctx -> float

val run : ctx -> Wafl_workload.Driver.spec -> Wafl_workload.Driver.result
(** [Driver.run] with the context's [sanitize], [telemetry] and [obs]
    put onto the spec.  Each unique spec runs once per context and a
    repeat returns the recorded result (two rows racing on one spec may
    both run it; runs are deterministic, so either record serves). *)

val scope : ctx -> ctx
(** The same context (same run table) with an empty request log, so a
    caller can ask afterwards which specs one experiment requested. *)

val charged : ctx -> record list
(** Every spec requested through this scope, once each — whether it ran
    here or was already in the table — in ascending virtual time. *)

val executed : ctx -> record list
(** Every spec run under the context, in ascending virtual time. *)

val par_map : ctx -> ('a -> 'b) -> 'a list -> 'b list
(** Map over independent sweep points (experiment rows, scenario
    matrices), executing up to the context's [domains] of them
    concurrently on worker domains ({!Wafl_util.Pool}).  Results keep
    input order, so the sweep is byte-identical to [List.map] at any
    domain count. *)

val spec_base : scale:float -> Wafl_workload.Driver.spec
(** The common 20-core paper-platform spec: SSD aggregate of 2 RAID
    groups x (10 + 2) drives, 40 Fibre-Channel-style clients, 2 volumes,
    CP timer at 250 ms. *)

val wa_config :
  ?cleaners:int ->
  ?max_cleaners:int ->
  ?parallel_infra:bool ->
  ?dynamic:bool ->
  ?batching:bool ->
  unit ->
  Wafl_core.Walloc.config
(** White Alligator configuration shorthand used by all experiments. *)

val gain_pct : baseline:float -> float -> float

val shape : string -> bool -> string * bool
(** Tag a shape assertion for EXPERIMENTS.md reporting. *)

val print_shapes : (string * bool) list -> unit
