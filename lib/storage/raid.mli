(** RAID-group write path.

    Tetris I/Os (one per RAID group, paper §IV-E) are submitted here.  The
    group services requests with a configurable queue depth; service time
    models per-block transfer plus a parity-read penalty for every stripe
    that is not written full-width (objective 1 of §IV-D: full-stripe
    writes need no parity reads).  Payloads become durable — visible in
    the {!Disk} — at I/O completion.

    Statistics exposed here (full vs partial stripe counts) back the
    allocation-quality ablation benchmarks.

    Failure surface: when a {!Fault} plan is attached to the disk, I/Os
    can fail transiently (retried with bounded exponential backoff in
    virtual time) or permanently ({!take_failed} hands the affected
    writes to the CP engine for re-allocation); a scheduled whole-disk
    loss flips the group into degraded mode, where {!read} reconstructs
    lost blocks from the parity model while a background rebuild fiber
    (label ["rebuild"]) recreates the drive, its progress and device-busy
    cost observable through {!rebuild_blocks} and {!device_busy}. *)

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
    with stripe mix args.  The engine's registry gets service-time
    histogram and I/O counters under the ["raid."] metric prefix; the
    group's own stripe and rebuild counts are published as the pull
    counters ["raid.full_stripes"], ["raid.partial_stripes"] and
    ["rebuild.blocks"] and the pull gauge ["rebuild.active"] (1 while
    degraded), each summed over the engine's groups.  [flash] (default none) attaches an
    FTL media model: durable writes additionally program NAND pages —
    charging program time and GC-induced stalls to the I/O before its
    completion is signalled — and freed blocks should be {!trim}med. *)

val rg : 'b t -> int

val flash : 'b t -> Wafl_flash.Ftl.t option
(** The attached FTL media model, if any. *)

val set_stream_of : 'b t -> ('b -> int) -> unit
(** Install the payload -> flash-write-stream classifier (default: all
    payloads to stream 0).  Only consulted when a flash model is
    attached. *)

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

val submit : 'b t -> writes:(Geometry.vbn * 'b) list -> on_complete:(unit -> unit) -> unit
(** Enqueue one tetris I/O.  Charges the submitting fiber the CPU dispatch
    cost; device service happens asynchronously in virtual time.
    [on_complete] runs in a service-fiber context after the payloads are
    durable — it must only update counters / wake fibers.  Every VBN must
    belong to this RAID group. *)

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

val ios_completed : 'b t -> int
val blocks_written : 'b t -> int
val full_stripes : 'b t -> int
val partial_stripes : 'b t -> int
val device_busy : 'b t -> float
(** Total device service time consumed, in virtual µs (includes retry
    backoff and rebuild work). *)

val transient_retries : 'b t -> int
val degraded_reads : 'b t -> int
val rebuild_blocks : 'b t -> int
