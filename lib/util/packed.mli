(** Packed block images: a fixed-length vector of 64-bit slots stored 8
    bytes apiece in one [Bytes.t].

    This is the on-disk form of every metafile block whose payload is a
    run of numbers (block-map and container entries, activemap words).
    A bytes block holds no pointers, so the major GC never scans an
    image's contents, however many images the simulated disk retains.
    Builders write every slot exactly once; nothing pre-fills.

    An image is immutable for as long as anything can read it.  Once it
    is dead, its owner may {!recycle} the buffer into a {!spares} pool;
    a later build drawing from that pool overwrites it in place instead
    of allocating a fresh buffer.  Recycling an image that is still
    reachable corrupts it. *)

type t

type spares
(** A pool of dead image buffers, all of one size. *)

val spares : slots:int -> spares
(** An empty pool holding buffers of [slots] slots. *)

val recycle : spares -> t -> unit
(** Hand a dead image's buffer to the pool.  The caller must hold the
    only reference: the next build that draws it overwrites every slot.
    Images of another size are left to the GC. *)

val of_ints : ?spares:spares -> int array -> pos:int -> len:int -> default:int -> t
(** [of_ints a ~pos ~len ~default] has [len] slots; slot [i] holds
    [a.(pos + i)] when [pos + i < Array.length a] and [default]
    otherwise.  With [spares], the image is filled into a pooled buffer
    when one of [len] slots is available.  Raises [Invalid_argument] on
    a negative [pos] or [len]. *)

val of_words : ?spares:spares -> Bytes.t -> pos:int -> len:int -> t
(** [of_words src ~pos ~len] copies the 64-bit words [pos] ..
    [pos + len - 1] of [src] (8 bytes apiece, native byte order, the
    layout of a bitmap kept in [Bytes]), filled into a pooled buffer as
    {!of_ints} does.  Raises [Invalid_argument] if that range is not
    inside [src]. *)

val length : t -> int
(** Number of slots. *)

val get : t -> int -> int
(** Slot [i] as an [int]: exact for anything stored by {!of_ints}. *)

val get_int64 : t -> int -> int64
(** Slot [i] as raw 64 bits: exact for anything stored by {!of_words},
    including words with bit 63 set. *)
