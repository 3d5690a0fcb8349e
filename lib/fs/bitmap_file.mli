(** An allocation bitmap stored as a metafile ("one bit for each block in
    the file system to track whether the corresponding block is used or
    free", §III-C).

    The bitmap tracks which of its own metafile blocks are dirty (have
    had bits toggled since the last consistency point) and where each
    metafile block lives on disk, so a CP can rewrite exactly the dirty
    blocks at fresh locations.  A set bit means {e in use}. *)

type t

val create : bits:int -> t
(** All bits clear (everything free). *)

val nbits : t -> int

val block_of_bit : int -> int
(** Which metafile block covers a given bit (see
    {!Layout.bits_per_map_block}). *)

val mem : t -> int -> bool
val set : t -> int -> unit
(** Raises [Invalid_argument] if the bit is already set — a double
    allocation, which must never happen. *)

val clear : t -> int -> unit
(** Raises [Invalid_argument] if the bit is already clear — a double
    free. *)

val free_count : t -> int
val used_count : t -> int

val find_free : t -> lo:int -> hi:int -> start:int -> int option
(** Lowest clear bit in [\[max lo start, hi\]], scanning word-at-a-time.
    [None] when the range is fully allocated. *)

val iter_free : t -> lo:int -> hi:int -> (int -> unit) -> unit
(** [iter_free t ~lo ~hi f] calls [f] on every clear bit in
    [\[lo, hi\]], ascending, reading each word once.  It adds to
    {!words_scanned} exactly what a loop of [find_free] calls adds that
    starts at [lo], restarts one past each bit found and stops at
    [None], so the scan cost charged from that count does not change.
    [f] must not set or clear bits of [t]. *)

val count_free_in : t -> lo:int -> hi:int -> int
val words_scanned : t -> int
(** Cumulative 64-bit words examined by [find_free] / [count_free_in];
    the infrastructure charges CPU proportionally. *)

(** {1 Metafile bookkeeping} *)

val dirty_blocks : t -> int list
(** Metafile blocks with bits toggled since the last [clear_dirty],
    ascending. *)

val dirty_blocks_desc : t -> int list
(** [dirty_blocks] in descending order, for prepend-accumulator callers
    that would otherwise reverse the ascending list. *)

val dirty_count : t -> int

val clear_dirty : t -> unit
val words_of_block : ?spares:Wafl_util.Packed.spares -> t -> int -> Wafl_util.Packed.words
(** Packed image of the words backing metafile block [i], for
    serialization, in a buffer from [spares] when one fits (the last
    block of a map may be shorter than a full one). *)

val snapshot_words : t -> int64 array
(** Copy of the whole bit array; used to capture the block-usage state a
    snapshot pins. *)

val slab_bytes : t -> int
(** Bytes of slab behind the map: its bit array (8 bytes per 64 bits)
    and its location map. *)

val load_block : t -> int -> Wafl_util.Packed.words -> unit
(** Overwrite block [i]'s words from a disk image (recovery). *)

val location : t -> int -> int
(** Current pvbn of metafile block [i], or -1 if never written. *)

val locations : t -> (int * int) array
(** [(i, location t i)] for every block ever written, ascending. *)

val set_location : t -> int -> int -> int
(** [set_location t i pvbn] records the new location and returns the
    previous one (-1 if none) so the caller can free it. *)
