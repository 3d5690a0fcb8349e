(** The consistency-point engine (paper §II-C).

    A CP atomically snapshots all dirty in-memory state, cleans every
    dirty inode through the cleaner pool (write allocation proper), then
    relocates and writes out every dirty metafile block, flushes the
    remaining tetris contents, quiesces RAID, and finally publishes the
    superblock — the atomic commit.  Operations logged after the snapshot
    belong to the next CP.

    Work distribution implements both §V-C optimizations: small dirty
    inodes are batched into one cleaner message, and large dirty inodes
    are split into segments processed by multiple cleaners in parallel. *)

type config = {
  batching : bool;  (** batch small inodes into one message *)
  batch_max_inodes : int;
  batch_max_buffers : int;
  segment_buffers : int;  (** split inodes with more dirty buffers than this *)
  timer_interval : float option;  (** periodic CP trigger, virtual µs *)
  serial_cleaning : bool;
      (** historical pre-2008 mode (§III-B/C): inode cleaning and metafile
          relocation run as Serial-affinity messages with VBN-at-a-time
          allocation, excluding all client processing while they run *)
  fair_cp : bool;
      (** admit cleaning work round-robin across volumes
          ({!Wafl_qos.Fair.interleave}) so one hot tenant cannot
          monopolize the front of a checkpoint; off reproduces the
          historical volume-order walk exactly *)
}

type t

val create : ?obs:Wafl_obs.Trace.t -> Infra.t -> Cleaner_pool.t -> config -> t
(** Spawns the CP manager fiber (label ["cp"]) and, if configured, the
    timer fiber.  [obs] (default disabled) records the CP phase timeline:
    one ["cp <phase>"] span per phase and a whole-["CP"] span with
    buffer/metafile counts.  The engine's registry gets per-phase
    duration histograms (["cp.phase_us.<phase>"]), CP count/duration
    metrics and the counter ["cp.buffers_cleaned"], to which each CP adds
    the buffers it cleaned when it commits.  Every CP runs under its aggregate's chaos plan
    ({!Wafl_fs.Aggregate.chaos}).  The CP
    count and the back-to-back counts ({!b2b_cps} and its episodes) are
    published as the pull counters ["cp.count"], ["cp.b2b"] and
    ["cp.b2b_episodes"]. *)

val request : t -> unit
(** Ask for a CP; no-op if one is already running (it will run again
    afterwards if more state got dirty — the back-to-back CP behaviour of
    a loaded system). *)

val run_now : t -> unit
(** Fiber context: request a CP and park until one full CP (snapshotting
    state at least as new as now) has committed. *)

val running : t -> bool

val phase : t -> string
(** Diagnostic: which CP phase is executing ("idle" between CPs). *)

val cps_completed : t -> int

val b2b_cps : t -> int
(** CPs that started back-to-back: the previous one committed with the
    log-half-full trigger already reached again (paper §II-C).  Maximal
    runs of them are published as ["cp.b2b_episodes"]. *)

val meta_blocks_last_cp : t -> int
val meta_passes_last_cp : t -> int
(** Iterations the metafile fixpoint took (bounded; typically 2-3). *)
