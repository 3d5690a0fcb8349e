(** A FlexVol volume: file table, container map (vvbn -> pvbn), volume
    activemap and per-volume CP state (paper §II-B).

    Data blocks in a volume are dual-addressed: the block map of a file
    yields a vvbn (position in the volume's virtual space) and the
    container map translates it to a pvbn (position in the aggregate).
    Write allocation assigns {e both} — the reason the paper gives for
    why inode cleaning "does not fit neatly into any single affinity". *)

type t

val create : id:int -> vvbn_space:int -> t
val id : t -> int
val vvbn_space : t -> int

(** {1 Files} *)

val fresh_file_id : t -> int
val add_file : t -> File.t -> unit
(** Registers the file and dirties its inode chunk.  Raises
    [Invalid_argument] on a duplicate id. *)

val file : t -> int -> File.t option
val file_exn : t -> int -> File.t
val files : t -> File.t list
val file_count : t -> int

val mark_deleted : t -> File.t -> unit
(** Queue the file as a zombie: its blocks are freed by the next CP, at
    which point it disappears from the file table (WAFL processes
    deletions as deferred work so the client reply is immediate). *)

val take_zombies : t -> File.t list
(** The zombies queued for the starting CP (clears the queue). *)

val remove_file : t -> int -> unit
(** Drop a file from the table and dirty its inode chunk. *)

(** {1 Dirty-inode tracking} *)

val note_dirty : t -> File.t -> unit
(** Add to the front dirty-inode list (idempotent). *)

val dirty_inode_count : t -> int
val cp_snapshot : t -> File.t list
(** Atomically take the dirty-inode list and snapshot every listed file's
    buffers; the returned list is the CP's cleaning work. *)

val cp_files : t -> File.t list
val cp_done : t -> unit

(** {1 Container map} *)

val pvbn_of_vvbn : t -> int -> int
val map_vvbn : t -> vvbn:int -> pvbn:int -> int
(** Record a translation (or clear it with [pvbn:-1]); returns the
    previous pvbn (-1 if none) and dirties the covering container chunk. *)

val container_capacity : t -> int
(** Entries the container map holds: one per vvbn, made at creation, so
    mapping never grows it. *)

val slab_bytes : t -> int
(** Bytes of slab behind the volume's own maps: the container map (4 a
    vvbn), the activemap and frozen-vvbn bitmaps and the location maps,
    not its files' block maps. *)

(** {1 Volume activemap} *)

val vol_map : t -> Bitmap_file.t

val note_freed_vvbn : t -> int -> unit
(** Freeze a vvbn freed during the running CP (not reusable until the CP
    commits). *)

val vvbn_reusable : t -> int -> bool
val clear_recent_frees : t -> unit
(** Thaw every vvbn frozen by {!note_freed_vvbn} (CP commit); costs one
    step per freed vvbn, not a pass over the vvbn space. *)

(** {1 Metafile bookkeeping for CPs} *)

val mark_inode_dirty : t -> File.t -> unit
val dirty_container_chunks : t -> int list

val dirty_container_chunks_desc : t -> int list
(** Descending-order variant for prepend-accumulator callers. *)

val container_entries :
  ?spares:Wafl_util.Packed.spares -> t -> int -> Wafl_util.Packed.entries
(** Packed entries of container block [i], in a buffer from [spares]
    when one is free. *)

val container_location : t -> int -> int
val set_container_location : t -> int -> int -> int
val clear_dirty_containers : t -> unit
val dirty_inode_chunks : t -> int list

val dirty_inode_chunks_desc : t -> int list
(** Descending-order variant for prepend-accumulator callers. *)

val inode_chunk : t -> int -> Layout.inode_rec list
val inode_location : t -> int -> int
val set_inode_location : t -> int -> int -> int
val clear_dirty_inode_chunks : t -> unit

(** {1 Persistence} *)

val to_vol_rec : t -> Layout.vol_rec
val of_vol_rec : Layout.vol_rec -> t
(** Rebuild identity and metafile locations; chunk contents are loaded by
    the recovery driver via [load_*]. *)

val load_container_chunk : t -> index:int -> entries:Wafl_util.Packed.entries -> unit
val load_inode_chunk : buffers:File.buffers -> t -> Layout.inode_rec list -> unit
(** Registers the files, their dirty buffers in [buffers], without
    dirtying inode chunks. *)
