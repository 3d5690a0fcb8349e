(** The tetris: the unit of write I/O (paper §IV-E).

    One tetris per RAID group per bucket refill cycle.  Cleaner threads
    enqueue write-allocated buffers into the per-drive column matching
    their bucket; no lock is needed because the cleaner owning a bucket
    has exclusive access to that drive's column.  A reference count of
    outstanding buckets is decremented as buckets are returned; when it
    reaches zero the accumulated blocks are submitted to RAID as one I/O.
    {!submit_now} force-flushes a partial tetris at a CP boundary (these
    flushes are the main source of partial-stripe writes).

    The blocks accumulate in a {!Wafl_storage.Raid.batch} taken from the
    group's pool at the first enqueue: a cleaned data block goes in as
    its codec key and content word ({!enqueue_data}), metafile images
    boxed ({!enqueue}).  Submitting hands the batch to RAID, which
    recycles it when the I/O completes. *)

type t

val create :
  ?obs:Wafl_obs.Trace.t ->
  Wafl_sim.Engine.t ->
  cost:Wafl_sim.Cost.t ->
  raid:Wafl_fs.Layout.block Wafl_storage.Raid.t ->
  expected_buckets:int ->
  t
(** [obs] (default disabled) records a ["stripe fill"] span per submitted
    I/O.  The tetris fill — blocks accumulated per submitted I/O, the
    quantity behind the full-vs-partial-stripe mix — goes to the engine's
    ["tetris.fill_blocks"] histogram, one sample per submitted I/O: its
    count is the I/Os submitted and its sum the blocks they carry. *)

val enqueue : t -> vbn:int -> payload:Wafl_fs.Layout.block -> unit
(** Append a block image, packed through the disk codec when it packs. *)

val enqueue_data : t -> vbn:int -> vol:int -> file:int -> fbn:int -> content:int64 -> unit
(** Append a data block by its fields, as {!Wafl_fs.Layout.add_data}
    does: its codec key and content word, without building its image. *)

val bucket_done : t -> unit
(** Atomically decrement the outstanding-bucket count; submits the I/O at
    zero.  Must be called from fiber context (I/O dispatch charges CPU). *)

val submit_now : t -> unit
(** Submit whatever has accumulated (no-op when empty). *)

val make_temperature_stream : unit -> int -> Wafl_fs.Layout.block option -> int
(** Build a flash write-stream classifier ({!Wafl_storage.Raid.set_stream_of}:
    codec key, boxed payload) for {!Walloc}'s [streams] policy.  A
    compact entry's volume, file and fbn are decoded from its key; a
    boxed [Data]'s are read from the image.  The classifier yields
    stream 1 (hot) for every metafile class (re-dirtied each CP)
    and for data blocks whose observed rewrite interval is shorter than a
    uniformly-rewritten block's would be; stream 0 (cold) otherwise.  The
    classifier is stateful (per-block last-write tracking) but
    deterministic.  Keeping erase blocks death-time-homogeneous is what
    lowers GC write amplification. *)
