(** The mounted file system: an aggregate of RAID groups housing FlexVol
    volumes (paper §II-B), plus the aggregate-wide allocation state that
    the write-allocation infrastructure manipulates.

    This module is pure bookkeeping — it never charges simulated CPU
    itself; callers (Waffinity messages, cleaner threads, the CP engine)
    charge costs according to what they touched.  All mutating entry
    points assume the caller holds the appropriate serialization (an
    affinity or a cleaner-owned structure), exactly as in WAFL.

    Crash semantics: {!crash} returns the {!persist} handle (disk,
    superblock, NVRAM log) and abandons all volatile state; {!recover}
    mounts a fresh instance from it and replays the log. *)

type t

type meta_ref = Blockref.t

type persist
(** What survives a crash: the disk image, the last durable superblock
    and the NVRAM log. *)

exception Corruption of string
(** {!Blockref.Corruption}: raised by {!read}, {!read_snapshot} and
    {!recover} when an on-disk block is unreadable or does not match the
    metadata that references it — the invariant a broken allocator
    violates. *)

val create :
  ?nvlog_half:int ->
  ?nvlog_watermarks:Nvlog.watermarks ->
  ?cache_blocks:int ->
  ?obs:Wafl_obs.Trace.t ->
  ?flash:Wafl_flash.Ftl.config ->
  ?chaos:Wafl_storage.Fault.chaos ->
  Wafl_sim.Engine.t ->
  cost:Wafl_sim.Cost.t ->
  geometry:Wafl_storage.Geometry.t ->
  unit ->
  t
(** [obs] (default disabled) is handed to each RAID group so device
    service spans are recorded.  The aggregate publishes its NVLog
    accounting in the engine's registry as the pull counters ["nvlog.stall_us"]
    ({!stall_time}), ["nvlog.hard_dwell_us"] (the part of it spent parked
    above the hard watermark) and
    ["nvlog.exhausted"] ({!exhausted_writes}).  [nvlog_watermarks]
    (default none) enables watermark back-pressure in
    {!wait_for_log_space}; the thresholds live with the NVRAM log, so
    they survive {!crash}/{!recover}.  [flash] (default none) attaches a
    {!Wafl_flash.Ftl} media model to every RAID group: writes program
    NAND pages (with GC push-back), frees are TRIMmed, and the config
    survives {!crash}/{!recover} (the L2P itself is re-derived from the
    recovered activemap).  Off means the device is the flat slab it was
    before — bit-identical behavior.  [chaos] (default
    {!Wafl_storage.Fault.no_chaos}) is the run's chaos plan; it too
    survives {!crash}/{!recover}, so a recovered CP engine runs under the
    same plan. *)

val engine : t -> Wafl_sim.Engine.t
val cost : t -> Wafl_sim.Cost.t
val geometry : t -> Wafl_storage.Geometry.t
val disk : t -> Layout.block Wafl_storage.Disk.t
val raid : t -> rg:int -> Layout.block Wafl_storage.Raid.t
val raid_groups : t -> Layout.block Wafl_storage.Raid.t array
val nvlog : t -> Nvlog.t

val chaos : t -> Wafl_storage.Fault.chaos
(** The chaos plan the aggregate was created with. *)

val dirty_buffers : t -> int
(** Dirty buffers held over every file, front and CP: at most
    {!Nvlog.total_pending}, since each is covered by a log record. *)

val counters : t -> Counters.t
val agg_map : t -> Bitmap_file.t

val ftls : t -> Wafl_flash.Ftl.t list
(** The per-RAID-group FTLs, in group order; empty without a media
    model. *)

val set_stream_classifier : t -> (int -> Layout.block option -> int) -> unit
(** Route tetris writes to flash write streams (hot metafiles vs cold
    user data), by codec key and boxed payload as
    {!Wafl_storage.Raid.set_stream_of} describes.  No-op without a media model; installed by
    {!Wafl_core.Walloc} when its [streams] policy is on. *)

(** {1 Client operations} *)

val create_volume : t -> vvbn_space:int -> Volume.t
(** Raises [Invalid_argument] on a [vvbn_space] of 2^31 or more: block
    maps keep each vvbn in 32 bits. *)

val volume : t -> int -> Volume.t option
val volume_exn : t -> int -> Volume.t
val volumes : t -> Volume.t list
val create_file : t -> vol:int -> File.t

val delete_file : t -> vol:int -> file:int -> unit
(** Log the deletion and queue the file as a zombie; its blocks (data,
    block-map metafile blocks, vvbns) are reclaimed by the next CP. *)

val write :
  t -> vol:int -> file:int -> fbn:int -> content:int64 -> [ `Ok | `Log_half_full | `Log_exhausted ]
(** Log the operation, dirty the buffer and queue the inode for the next
    CP.  [`Log_half_full] asks the caller to trigger a CP.
    [`Log_exhausted] means NVRAM is completely full and the operation was
    shed {e without} being logged or applied (counted in
    {!exhausted_writes} and reported by {!Report.faults}); with watermark
    back-pressure enabled this is unreachable. *)

val read : t -> vol:int -> file:int -> fbn:int -> int64 option
(** Dirty buffers first, then the on-disk tree.  [None] for holes. *)

val read_cached_status :
  t -> vol:int -> file:int -> fbn:int -> int64 option * [ `Buffered | `Hit | `Miss ]
(** Like {!read}, also reporting how the block was served: from a dirty
    buffer, from the read buffer cache, or from disk (the caller charges
    the miss cost). *)

val buffer_cache : t -> Buffer_cache.t

val read_pvbn : t -> int -> Layout.block option
(** Fault-aware physical read: goes through {!Raid.read} so latent media
    errors and degraded groups are reconstructed from the parity model.
    Raises {!Corruption} on a double failure ([`Lost]).  The payload is
    the stored image itself: it stays valid only until the CP that frees
    the block publishes (see {!publish_superblock}). *)

val wait_for_log_space : t -> unit
(** Write-admission throttle; call once before each {!write}.

    Without watermarks (the default): parks while the NVRAM filling half
    is full and a CP is still running, returns immediately otherwise —
    the legacy blanket stall.

    With {!Nvlog.watermarks} configured: admission control against NVRAM
    fill (occupancy plus already-admitted writes).  Crossing the soft
    watermark triggers an early CP (via {!set_cp_trigger}) and paces the
    write with a deterministic delay; at the hard watermark admission
    parks until a CP commit frees space.  Time spent parked or paced
    accumulates in {!stall_time}. *)

val set_cp_trigger : t -> (unit -> unit) -> unit
(** Install the early-CP hook used by watermark admission (normally
    [Cp.request], installed by [Walloc.create]). *)

val stall_time : t -> float
(** Total virtual µs clients have spent stalled (parked or paced) in
    {!wait_for_log_space}. *)

val exhausted_writes : t -> int
(** Writes refused with [`Log_exhausted]. *)

(** {1 Physical allocation state (infrastructure side)} *)

val commit_alloc_pvbn : t -> int -> unit
val commit_free_pvbn : t -> int -> unit
val pvbn_allocatable : t -> int -> bool
(** Free in the activemap {e and} not frozen by a free earlier in the
    running CP. *)

val commit_alloc_vvbn : t -> vol:Volume.t -> int -> unit
val commit_free_vvbn : t -> vol:Volume.t -> int -> unit
val vvbn_allocatable : t -> vol:Volume.t -> int -> bool

val select_aa : t -> rg:int -> exclude:int list -> int option
(** The Allocation Area of the RAID group with the most free blocks
    (§IV-D), excluding those currently being consumed. *)

val aa_free : t -> rg:int -> aa:int -> int
val select_vvbn_region : t -> vol:Volume.t -> exclude:int list -> int option
val vvbn_region_bits : int

(** {1 Sanitizer data domains}

    Canonical shared-state ids for [Engine.probe] and the
    {!Wafl_waffinity.Isolation} owner map: one domain per metafile map
    block, the partition-private unit the affinity rules protect
    (DESIGN.md §4.7). *)

val agg_map_domain : index:int -> string
val vol_map_domain : vol:int -> index:int -> string

(** {1 Consistency-point support} *)

val cp_snapshot : t -> (Volume.t * File.t list) list
(** Atomically freeze the dirty state of every volume and rotate the
    NVRAM log halves; returns each volume's cleaning work. *)

val take_dirty_meta : t -> meta_ref list
(** Dirty metafile blocks in dependency order (bmap, inode, container,
    volume map, aggregate map), clearing the dirty flags.  Metafile
    relocation during the CP re-dirties blocks; the CP engine calls this
    repeatedly until it returns []. *)

val meta_payload : t -> meta_ref -> Layout.block
(** Serialize a metafile block for writing.  Must be called after all
    location assignments of the current pass ({!meta_set_location}).
    A packed image is filled into a buffer from the aggregate's spare
    pool when one is free, and allocated otherwise. *)

val meta_location : t -> meta_ref -> int
(** Current on-disk pvbn of a metafile block, or -1 when it was never
    placed or its owning volume/file no longer exists.  The CP repair
    phase uses this to check that a failed metafile write is still the
    current location before re-allocating it. *)

val meta_set_location : t -> meta_ref -> int -> int
(** Record a metafile block's new pvbn; returns the previous one (-1 if
    none), which the caller must free. *)

val make_superblock : t -> Layout.superblock
val publish_superblock : t -> Layout.superblock -> unit
(** Make the superblock durable, commit the NVRAM log half, thaw
    recently freed VBNs, and bump the generation.  Each pvbn this CP
    freed that no snapshot holds has its disk image discarded, so
    {!read_pvbn} of it returns [None] until the block is rewritten, and
    a discarded packed image's buffer joins the spare pool that later
    {!meta_payload} calls refill. *)

val superblock : t -> Layout.superblock option
val generation : t -> int

(** {1 Snapshots} *)

val create_snapshot : t -> name:string -> Snapshot.t
(** Pin the tree of the last committed CP.  The pinned blocks stop being
    reusable until the snapshot is deleted.  Requires at least one
    committed CP and no CP in flight; durable from the next CP on. *)

val snapshots : t -> Snapshot.t list
val find_snapshot : t -> string -> Snapshot.t option
val snapshot_held : t -> int -> bool
(** Whether any snapshot references the given pvbn. *)

val read_snapshot : t -> Snapshot.t -> vol:int -> file:int -> fbn:int -> int64 option
(** Read a block as of the snapshot ({!Snapshot.read}), each block
    through {!read_pvbn}.  A media error is reconstructed and counted; a
    block lost in a degraded group or a malformed tree raises
    {!Corruption}. *)

val delete_snapshot : t -> Snapshot.t -> unit
(** Release the snapshot.  Blocks no longer referenced by the active
    tree or another snapshot count as free at once, but stay frozen, with
    their images intact, until the next CP publishes a superblock that no
    longer lists the snapshot (a crash before then recovers it).  That
    publish makes them allocatable and drops their images, as it does
    for the blocks its own CP freed. *)

(** {1 Crash and recovery} *)

val crash : t -> persist
val recover : Wafl_sim.Engine.t -> cost:Wafl_sim.Cost.t -> persist -> t
(** Mount from the persistent image: load the superblock's tree, walked
    by {!Blockref.iter} with each block read by {!Blockref.fetch} on
    {!read_pvbn}, and each snapshot's activemap chunks the same way;
    recompute allocation summaries and counters; replay the NVRAM log.
    Raises {!Corruption} (["recovery: "] and the fetch's message) at the
    first block that is missing, lost or not the one referenced.  The
    mounted aggregate has {!create}'s default buffer cache and no
    tracer. *)

(** {1 Integrity checking (tests)} *)

val fsck : t -> unit
(** Cross-check the in-memory tables: the metafile blocks {!recover}'s
    walk would visit in the tree they describe, then every file's data
    blocks, each claimed once in a used pvbn and vvbn, with no used one
    unclaimed; free counters and Allocation Area summaries must match the
    maps less the snapshot-held blocks.  Reads nothing from disk, so a
    referenced block that never landed passes.  Raises [Failure]
    (["fsck: ..."]).  Call at quiescent points (no CP in flight). *)
