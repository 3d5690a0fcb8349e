(** Workload driver: builds a simulated storage server (aggregate + White
    Alligator stack), populates it, applies one of the paper's workloads,
    and measures steady-state throughput, latency and per-component core
    usage (paper §V methodology).

    Every operation takes one path: drawn from its issuer's op stream,
    executed as a Waffinity message in a Stripe (or volume) affinity, and
    accounted once at its reply.  Write allocation proceeds concurrently
    in cleaner threads and infrastructure messages, exactly as in the
    modelled system.  Issuers differ only in pacing:
    - closed-loop clients (the default; the paper's Fibre-Channel hosts)
      keep one operation outstanding, optionally separated by exponential
      think time (used to sweep offered load for the latency curves of
      Figures 8 and 9).  An op counts toward the measurement window if
      the window is open when it {e completes};
    - open-loop tenants ([spec.open_loop]) issue ops on their own arrival
      clock, behind optional per-volume QoS, each op in its own fiber.
      An op counts if it {e arrived} inside the window, and is recorded
      at completion even after the window closes, so overload backlog is
      visible rather than censored.

    Every run's metrics registry is its engine's
    ({!Wafl_sim.Engine.metrics}), traced or not.  Components publish
    their cumulative counts there (DESIGN.md §4.8), and window
    counters (CPs, cleaning, allocation, stripes, NVLog, flash) are
    deltas of those counts read by name when the window opens and when
    it closes; the telemetry rollup watches the same registry. *)

type workload =
  | Seq_write of { file_blocks : int }
      (** each client streams sequentially through its own pre-filled
          file, wrapping (every write is an overwrite) *)
  | Rand_write of { file_blocks : int }
      (** uniformly random overwrites within each client's file *)
  | Skewed_write of { file_blocks : int; hot_fraction : float; hot_rate : float }
      (** random overwrites with lifetime skew: the first [hot_fraction]
          of each file's blocks takes [hot_rate] of the writes — the
          hot/cold mix the flash multi-stream policy segregates *)
  | Mixed_write of { file_blocks : int; random_fraction : float }
      (** a blend: each op is random with probability [random_fraction],
          else the next sequential block — used to locate the crossover
          between the Figure 4 and Figure 7 regimes *)
  | Oltp of { file_blocks : int; read_fraction : float }
      (** random 4 KiB reads/writes in OLTP proportions *)
  | Nfs_mix of { files_per_client : int; file_blocks : int }
      (** many small files; mix of reads, small writes and metadata ops —
          large numbers of dirty inodes with few dirty buffers (§V-C) *)

type open_loop = {
  arrivals : Arrival.process list;
      (** one tenant per process; tenant [i] issues ops against client
          slot [i mod clients]'s files (so its volume is
          [i mod clients mod volumes] — give each tenant its own volume
          by setting [clients = volumes = length arrivals]) *)
  qos : Wafl_qos.Qos.config option;
      (** per-volume admission control; [None] admits everything *)
}
(** Open-loop overload mode (DESIGN.md §4.11): arrivals keep coming at
    the configured rates no matter how slow the server gets, so offered
    load, goodput and shedding become distinct observables. *)

type telemetry = {
  rollup : Wafl_obs.Rollup.config;
  rules : Wafl_obs.Health.rule list;
}
(** Always-on fleet telemetry (DESIGN.md §4.15): bounded-memory
    per-volume rollups plus the health watchdog.  Strictly observe-only
    — windows seal lazily inside existing write-side calls, no fiber is
    spawned — so a telemetry-on run is bit-identical to telemetry-off. *)

val default_telemetry : telemetry
(** {!Wafl_obs.Rollup.default_config} + {!Wafl_obs.Health.default_rules}. *)

type telemetry_result = {
  tr_snapshot : Wafl_obs.Rollup.snapshot;
  tr_events : Wafl_obs.Health.event list;  (** oldest first *)
  tr_health_dropped : int;  (** events beyond the watchdog log capacity *)
}

type spec = {
  cores : int;
  workload : workload;
  clients : int;
  think_time : float;  (** mean virtual µs between a reply and the next op; 0 = closed loop at full tilt *)
  volumes : int;
  cfg : Wafl_core.Walloc.config;
  cost : Wafl_sim.Cost.t;
  geometry : Wafl_storage.Geometry.t;
  nvlog_half : int;
  watermarks : Wafl_fs.Nvlog.watermarks option;
      (** NVLog watermark back-pressure ({!Wafl_fs.Nvlog.watermarks});
          [None] (default) keeps the historical half-full throttle and is
          bit-identical to the pre-watermark driver *)
  open_loop : open_loop option;
      (** [None] (default) runs the closed-loop clients *)
  flash : Wafl_flash.Ftl.config option;
      (** attach a {!Wafl_flash.Ftl} media model to every RAID group;
          [None] (default) keeps the flat device and is bit-identical to
          the pre-flash driver *)
  cache_blocks : int;  (** read buffer cache capacity *)
  warmup : float;  (** virtual µs *)
  measure : float;
  seed : int;
  sanitize : bool;  (** run under the race detector and isolation checker *)
  chaos : Wafl_storage.Fault.chaos;
      (** the run's chaos plan, handed to its aggregate; default
          {!Wafl_storage.Fault.no_chaos} *)
  telemetry : telemetry option;
      (** attach fleet telemetry; [None] (default) is bit-identical to
          the pre-telemetry driver.  The rollup reads the run's registry
          by name ({!Wafl_obs.Rollup.watch}). *)
  obs : Wafl_sim.Engine.t -> Wafl_obs.Trace.t;
      (** tracer factory, called once with the run's engine before any
          component is built.  Default returns [Wafl_obs.Trace.disabled];
          to trace a run, return [Wafl_obs.Trace.create eng] and capture
          the tracer through a [ref] to export it afterwards.  The
          tracer only records; the run's metrics live in the engine's
          registry either way.  Tracing never changes results (see
          DESIGN.md §4.8). *)
}

val default_spec : spec
(** 20 cores, the paper-scale SSD aggregate (2 RAID groups of 10+2,
    256 Ki-block drives), sequential write, 32 clients, full White
    Alligator configuration, 0.5 s warmup and 2 s measurement. *)

type tenant_stat = {
  t_rate : float;  (** configured mean offered rate, ops per virtual second *)
  t_offered : int;  (** arrivals inside the measure window *)
  t_admitted : int;
  t_throttled : int;  (** admitted after a QoS queueing delay *)
  t_shed : int;  (** refused deterministically (queue full) *)
  t_completed : int;
      (** windowed arrivals that finished before measurement ended;
          [t_admitted - t_completed] is the tenant's end-of-window
          backlog — unbounded under overload without QoS *)
  t_write_latency : Wafl_util.Histogram.t;
      (** end-to-end (arrival to reply, including QoS queueing) latency
          of the tenant's completed windowed writes *)
}
(** Per-tenant accounting for open-loop runs. *)

type result = {
  ops : int;
  duration : float;
  virtual_us : float;  (** the run's final virtual clock (warmup + measurement window) *)
  throughput : float;  (** client ops per virtual second *)
  throughput_per_client : float;
  latency : Wafl_util.Histogram.t;
  write_latency : Wafl_util.Histogram.t;
      (** end-to-end latency of the write ops alone (the paper's client
          writes; what BENCH_paper.json reports as p50/p99) *)
  reads : int;
  writes : int;
  metas : int;
  cores_client : float;
  cores_cleaner : float;
  cores_infra : float;
  cores_cp : float;
  cores_io_other : float;
  utilization : float;
  cps_completed : int;
  buffers_cleaned : int;
  vbns_allocated : int;
  vbns_freed : int;
  metafile_blocks_touched : int;
  infra_messages : int;
  cleaner_messages : int;
  get_waits : int;
  avg_active_cleaners : float;
  full_stripes : int;
  partial_stripes : int;
  read_contiguity : float;
      (** average physically-contiguous run length walking files in fbn
          order — the sequential-read quality of the final layout *)
  offered_ops : int;
      (** open loop: arrivals inside the measure window (so
          [ops /. duration] is goodput and [offered_ops - ops] the
          backlog + shed); closed loop: = [ops] *)
  shed_ops : int;  (** QoS-refused arrivals in the window *)
  throttled_ops : int;  (** QoS-delayed admissions in the window *)
  stall_us : float;
      (** client virtual µs parked or paced in NVLog admission
          ({!Wafl_fs.Aggregate.wait_for_log_space}) during the window *)
  b2b_cps : int;  (** back-to-back CPs started in the window *)
  b2b_episodes : int;  (** maximal runs of consecutive back-to-back CPs *)
  nvlog_exhausted : int;
      (** writes refused because NVRAM was exhausted; watermark
          back-pressure must keep this at 0 *)
  tenants : tenant_stat array;  (** open-loop runs only; [[||]] otherwise *)
  races : int;  (** race-detector reports (0 unless [sanitize]; must stay 0) *)
  flash_host_pages : int;  (** NAND pages programmed for host writes in the window *)
  flash_gc_pages : int;  (** pages relocated by the FTL's GC in the window *)
  flash_erases : int;
  flash_gc_stall_us : float;
      (** host service time lost waiting for the GC to free erase blocks *)
  waf : float;
      (** measured write amplification over the window,
          [(host + gc) / host]; 1.0 without a media model or without host
          writes *)
  telemetry : telemetry_result option;
      (** rollup snapshot + health events when [spec.telemetry] is set *)
}

val cores_write_alloc : result -> float
(** Cleaner + infrastructure core usage — the paper's "write allocation
    work". *)

val run : spec -> result
(** Build, populate (each client's files are written once and flushed by
    a CP so that steady-state writes are overwrites), warm up, measure.
    Deterministic for a given spec.  Raises [Invalid_argument] naming the
    field, before anything is built, when [clients] or [volumes] is below
    1, [measure] is not positive, or the working set does not fit the
    geometry. *)

val small_geometry : unit -> Wafl_storage.Geometry.t
(** Scaled-down geometry for fast tests. *)
