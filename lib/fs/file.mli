(** In-memory inode: dirty buffers, block map and CP snapshot state.

    Client writes land in the {e front} dirty-buffer table.  When a CP
    starts, the front table becomes the {e CP} table (an O(1) swap — the
    in-memory copy-on-write of §II-C: later client writes repopulate the
    front table and never disturb the snapshot being flushed).  Cleaner
    threads walk the CP table, assign VBNs and update the block map; CP
    buffers stay readable until {!cp_done} so reads never race the
    in-flight tetris I/Os. *)

type t

val create : vol:int -> id:int -> t
val vol : t -> int
val id : t -> int
val nfbns : t -> int
(** One past the highest fbn ever written. *)

(** {1 Front (client) side} *)

val write : t -> fbn:int -> content:int64 -> unit
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
(** Swap front into the CP table.  Raises [Invalid_argument] if a CP
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

val bmap_entries : ?spares:Wafl_util.Packed.spares -> t -> int -> Wafl_util.Packed.t
(** Packed entries of bmap block [i] (length
    {!Layout.entries_per_bmap_block}), in a buffer from [spares] when one
    is free. *)

val bmap_location : t -> int -> int
val set_bmap_location : t -> int -> int -> int
(** Returns the previous pvbn (-1 if none). *)

val clear_dirty_bmap : t -> unit
val inode_rec : t -> Layout.inode_rec
val of_inode_rec : vol:int -> Layout.inode_rec -> t
(** Rebuild from a persisted inode record; bmap blocks are loaded
    afterwards with {!load_bmap_block}. *)

val load_bmap_block : t -> index:int -> entries:Wafl_util.Packed.t -> unit
