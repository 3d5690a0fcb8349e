(** RAID-group write path.

    Tetris I/Os (one per RAID group, paper §IV-E) are submitted here.  The
    group services requests with a configurable queue depth; service time
    models per-block transfer plus a parity-read penalty for every stripe
    that is not written full-width (objective 1 of §IV-D: full-stripe
    writes need no parity reads).  Payloads become durable — visible in
    the {!Disk} — at I/O completion.

    An I/O is a {!batch}: its entries in submission order, each a vbn and
    either the disk's own slot format for a compact image (the codec key
    and word, see {!Disk.codec}) or a boxed payload.  The service fiber
    stores each entry with {!Disk.write_compact} or {!Disk.write}, so a
    cleaned data block travels from the cleaner to the store as two
    words and no image value.  Each group pools its batches: a completed
    I/O's batch is emptied (keeping no payload reachable) and handed out
    again by {!batch}; its arrays grow on demand.

    The group's counts (I/Os, blocks, full vs partial stripes, which
    back the allocation-quality ablation benchmarks) are published to the
    engine's metrics registry ({!create}) and read there by name.

    Failure surface: when a {!Fault} plan is attached to the disk, I/Os
    can fail transiently (retried with bounded exponential backoff in
    virtual time) or permanently ({!take_failed} hands the affected
    writes to the CP engine for re-allocation); a scheduled whole-disk
    loss flips the group into degraded mode, where {!read} reconstructs
    lost blocks from the parity model while a background rebuild fiber
    (label ["rebuild"]) recreates the drive.  The plan counts transient
    retries and degraded reads ({!Fault.transient_retries},
    {!Fault.degraded_reads}); the rebuild's progress is
    {!rebuild_blocks}. *)

type 'b t

val create :
  ?queue_depth:int ->
  ?obs:Wafl_obs.Trace.t ->
  ?flash:Wafl_flash.Ftl.t ->
  Wafl_sim.Engine.t ->
  cost:Wafl_sim.Cost.t ->
  disk:'b Disk.t ->
  rg:int ->
  'b t
(** Spawns [queue_depth] (default 4) service fibers labelled ["io"].
    [obs] (default disabled) records a ["raid io"] span per serviced I/O
    with stripe mix args.  The engine's registry gets the service- and
    wait-time histograms ["raid.io_service_us"] and ["raid.io_wait_us"]
    and the counters ["raid.ios"] and ["raid.blocks"] (I/Os serviced,
    blocks they carried); the group's own stripe and rebuild counts are
    published as the pull counters ["raid.full_stripes"],
    ["raid.partial_stripes"] and ["rebuild.blocks"] and the pull gauge
    ["rebuild.active"] (1 while degraded), each summed over the engine's
    groups.  [flash] (default none) attaches an FTL media model: durable
    writes additionally program NAND pages — charging program time and
    GC-induced stalls to the I/O before its completion is signalled —
    and freed blocks should be {!trim}med. *)

val rg : 'b t -> int

val flash : 'b t -> Wafl_flash.Ftl.t option
(** The attached FTL media model, if any. *)

val set_stream_of : 'b t -> (int -> 'b option -> int) -> unit
(** Install the flash-write-stream classifier (default: every write to
    stream 0), called once per durable entry in submission order.  It
    gets the entry's codec key, and [Some payload] for a boxed entry;
    for a compact one (key [>= 0]) it gets [None], and no image is
    built.  Only consulted when a flash model is attached. *)

val trim : 'b t -> Geometry.vbn -> unit
(** Tell the FTL this block's previous contents are dead (no-op without a
    flash model).  Callable outside fiber context. *)

val read : 'b t -> Geometry.vbn -> [ `Ok of 'b | `Degraded of 'b | `Absent | `Lost ]
(** Fault-aware read path.  [`Degraded] means the payload was
    reconstructed from the parity model (media error or failed drive) —
    the content is intact but the read cost the group a reconstruction.
    [`Lost] is a double failure (media error in a stripe that already
    lost its drive): the data is unrecoverable.  Without a fault plan
    this is exactly {!Disk.read}.  Usable outside fiber context (it
    never charges CPU); every VBN must belong to this group. *)

val read_word :
  'b t -> Geometry.vbn -> key:int -> [ `Word of int64 | `Other of 'b | `Absent | `Lost ]
(** {!read} for a block expected to hold the compact image whose codec
    key is [key] ([>= 0]): [`Word w] when it does, without building the
    image, and [`Other p] when the slot holds any other image.  The same
    fault-aware path as {!read}: a degraded read counts and repairs the
    same way, and serves [`Word] or [`Other] as {!read} serves [`Degraded]. *)

type 'b batch
(** The entries of one write I/O, in submission order. *)

val batch : 'b t -> 'b batch
(** An empty batch for this group: a recycled one from the pool, or a
    fresh one. *)

val add : 'b batch -> Geometry.vbn -> 'b -> unit
(** Append a write, packed through the disk's codec: compact when the
    codec packs the payload, boxed otherwise. *)

val add_compact : 'b batch -> Geometry.vbn -> key:int -> word:int64 -> unit
(** Append the compact image whose codec key is [key] and word is
    [word], without building it.  Raises [Invalid_argument] on a
    negative key. *)

val batch_length : 'b batch -> int

val submit_batch : 'b t -> 'b batch -> on_complete:(unit -> unit) -> unit
(** Enqueue one tetris I/O, handing the batch to the group: the caller
    must not touch it again.  Charges the submitting fiber the CPU
    dispatch cost; device service happens asynchronously in virtual
    time, and the batch goes back to the pool when it completes.
    [on_complete] runs in a service-fiber context after the payloads are
    durable — it must only update counters / wake fibers.  Every VBN must
    belong to this RAID group.  An empty batch completes at once. *)

val submit : 'b t -> writes:(Geometry.vbn * 'b) list -> on_complete:(unit -> unit) -> unit
(** {!submit_batch} of a batch holding [writes], added in order.  The
    file system submits batches; this form serves the per-layer
    micro-benchmarks. *)

val quiesce : 'b t -> unit
(** Park until all submitted I/Os have completed. *)

val shutdown : 'b t -> unit
(** Stop the service fibers once the queue drains; used by tests that
    assert no fiber is left parked. *)

val take_failed : 'b t -> (Geometry.vbn * 'b) list
(** Writes that failed permanently (bad sector, or transient retries
    exhausted), in submission order, clearing the list.  The CP engine
    calls this after quiescing and re-allocates the affected blocks
    before publishing the superblock. *)

val degraded : 'b t -> bool
(** A drive of this group is lost and not yet fully rebuilt. *)

val device_busy : 'b t -> float
(** Total device service time consumed, in virtual µs (includes retry
    backoff and rebuild work). *)

val rebuild_blocks : 'b t -> int
