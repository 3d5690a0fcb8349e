(** In-memory inode: dirty buffers, block map and CP snapshot state.

    Client writes land in the {e front} dirty buffers.  When a CP
    starts, the front buffers become the {e CP} snapshot (an O(1) flip —
    the in-memory copy-on-write of §II-C: later client writes fill a new
    front and never disturb the snapshot being flushed).  Cleaner
    threads walk the snapshot, assign VBNs and update the block map; CP
    buffers stay readable until {!cp_done} so reads never race the
    in-flight tetris I/Os.

    The buffers' contents are unboxed words in one {!buffers} table that
    every file of an aggregate shares, keyed by (file, fbn, generation);
    a file keeps only a front and a CP presence bitmap.  {!cp_snapshot}
    flips the file's generation, so the front keys become the
    snapshot's, and {!cp_done} unbinds the snapshot's keys by walking
    its bitmap.  Every front buffer is covered by a record in the NVLog's
    filling half, and every snapshot buffer by one in the half its CP
    drains, so the table holds at most {!Nvlog.total_pending} bindings.
    Writing, snapshotting and finishing a CP allocate nothing once the
    table and the bitmaps have grown to their working size. *)

type buffers
(** A dirty-buffer table shared by files. *)

val buffers : unit -> buffers
val buffered : buffers -> int
(** Buffers held, front and CP, over every file in the table. *)

type t

val create : vol:int -> id:int -> t
(** A file with a private {!buffers} table. *)

val create_in : buffers -> vol:int -> id:int -> t
(** A file whose buffers live in a shared table. *)

val id : t -> int
val nfbns : t -> int
(** One past the highest fbn ever written. *)

(** {1 Front (client) side} *)

val write : t -> fbn:int -> content:int64 -> unit
(** Raises [Invalid_argument] unless [0 <= fbn < 2^32]. *)

val read_cached : t -> fbn:int -> int64 option
(** Front table first, then the CP snapshot. *)

val dirty_front : t -> int
(** Number of front dirty buffers. *)

(** {1 Block map} *)

val vvbn_of_fbn : t -> int -> int
(** -1 for holes. *)

val set_vvbn : t -> fbn:int -> vvbn:int -> int
(** Record the new location chosen by a cleaner; returns the previous
    vvbn (-1 if none) and marks the covering bmap block dirty. *)

(** {1 CP snapshot} *)

val cp_snapshot : t -> unit
(** Make the front buffers the CP snapshot.  Raises [Invalid_argument] if a CP
    snapshot is still outstanding. *)

val cp_buffer_count : t -> int

val cp_fbns_into : t -> int array -> pos:int -> unit
(** Write the snapshot's fbns in ascending order — the cleaning order,
    which makes consecutive file blocks land on consecutive bucket VBNs
    — into [dst.(pos)] onward; [dst] needs room for
    {!cp_buffer_count} of them. *)

val cp_content : t -> int -> int64
(** Content of a snapshot buffer.  Raises [Not_found] for an fbn the
    snapshot does not hold. *)

val cp_done : t -> unit

(** {1 Block-map metafile bookkeeping} *)

val dirty_bmap_blocks : t -> int list

val dirty_bmap_blocks_desc : t -> int list
(** Descending-order variant for prepend-accumulator callers. *)

val bmap_entries : ?spares:Wafl_util.Packed.spares -> t -> int -> Wafl_util.Packed.entries
(** Packed entries of bmap block [i] (length
    {!Layout.entries_per_bmap_block}), in a buffer from [spares] when one
    is free. *)

val bmap_location : t -> int -> int
val set_bmap_location : t -> int -> int -> int
(** Returns the previous pvbn (-1 if none). *)

val clear_dirty_bmap : t -> unit
val inode_rec : t -> Layout.inode_rec
val of_inode_rec : ?buffers:buffers -> vol:int -> Layout.inode_rec -> t
(** Rebuild from a persisted inode record, in [buffers] (default: a
    private table); bmap blocks are loaded afterwards with
    {!load_bmap_block}. *)

val load_bmap_block : t -> index:int -> entries:Wafl_util.Packed.entries -> unit
