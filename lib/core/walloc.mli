(** Facade wiring a complete White Alligator write-allocation stack onto
    an aggregate: Waffinity scheduler, infrastructure, cleaner pool,
    optional dynamic tuner and the CP engine.

    The paper's four evaluation permutations (Figures 4 and 7) are pure
    configuration here:

    - serialized baseline: [parallel_infra = false], [cleaner_threads = 1]
    - parallel infrastructure only: [parallel_infra = true], 1 cleaner
    - parallel cleaners only: [parallel_infra = false], N cleaners
    - full White Alligator: both parallel

    matching the instrumented-kernel methodology of §V-A. *)

type config = {
  parallel_infra : bool;
  cleaner_threads : int;  (** initial / static active cleaner count *)
  max_cleaner_threads : int;
  dynamic_cleaners : bool;
  tuner : Tuner.config;
  chunk : int;
  ranges : int;
  batching : bool;
  segment_buffers : int;
  cp_timer : float option;
  serial_cleaning : bool;
      (** run the historical pre-2008 serial-affinity allocator instead of
          White Alligator (ablation of the §III evolution) *)
  fair_cp : bool;
      (** round-robin CP cleaning work across volumes (fair CP admission,
          DESIGN.md §4.11); off reproduces the volume-order walk *)
  streams : [ `Off | `Temperature ];
      (** flash multi-stream routing: [`Temperature] sends metafile
          payloads and frequently-rewritten data blocks to a hot write
          stream and long-lived data to a cold one
          ({!Tetris.make_temperature_stream}).  Only meaningful with a
          {!Wafl_flash.Ftl} media model attached to the aggregate. *)
}

val default_config : config
(** Full White Alligator: parallel infrastructure, 4 cleaner threads (max
    8), no dynamic tuning, batching on.

    Fixed in every configuration: the Waffinity scheduler has one worker
    per engine core; each volume keeps [max 8 (max_cleaner_threads + 2)]
    vvbn buckets in flight; a cleaner stages 64 frees before committing
    them ({!Infra.stage_capacity}); and a batch closes at 16 inodes or 64
    dirty buffers. *)

val serialized_config : config
(** The pre-White-Alligator baseline: one cleaner thread and serialized
    infrastructure. *)

type t

val create : ?obs:Wafl_obs.Trace.t -> Wafl_fs.Aggregate.t -> config -> t
(** [obs] (default disabled) threads one tracer through every component:
    scheduler message spans, cleaner-pool work spans, tetris fill spans
    and the CP phase timeline.  Metrics go to the engine's registry
    whatever the tracer.  Note the
    RAID layer is instrumented separately — pass the same tracer to
    [Aggregate.create].

    Also installs [Cp.request] as the aggregate's early-CP trigger
    ({!Wafl_fs.Aggregate.set_cp_trigger}), which NVLog watermark
    admission uses; a no-op unless watermarks are configured. *)

val scheduler : t -> Wafl_waffinity.Scheduler.t
val infra : t -> Infra.t
val pool : t -> Cleaner_pool.t
val cp : t -> Cp.t
val tuner : t -> Tuner.t option

val register_volume : t -> Wafl_fs.Volume.t -> unit
(** Volumes created after {!create} must be registered so the
    infrastructure starts filling their vvbn buckets. *)
