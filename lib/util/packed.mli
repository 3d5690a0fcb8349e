(** Packed block images: a fixed-length vector of slots stored in one
    {!Slab}, in one of two kinds.

    - An {e entry} image ({!entries}) holds signed 32-bit slots, 4 bytes
      apiece: the block-map and container entries, each a VBN or -1.
      Every value must lie in [[-2^31, 2^31)].
    - A {e word} image ({!words}) holds raw 64-bit slots, 8 bytes apiece:
      the activemap words.

    The kind is in the type, so no read branches on slot width.  This is
    the on-disk form of every metafile block whose payload is a run of
    numbers.  The slots live off the heap, so an image costs the major
    heap only its slab's small custom block, however many images the
    simulated disk retains.  Builders write every slot exactly once;
    nothing pre-fills.

    An image is immutable for as long as anything can read it.  Once it
    is dead, its owner may {!recycle} the buffer into a {!spares} pool;
    a later build drawing from that pool overwrites it in place instead
    of allocating a fresh buffer.  Recycling an image that is still
    reachable corrupts it. *)

type 'k t

type entry
type word

type entries = entry t
(** 4-byte signed slots. *)

type words = word t
(** 8-byte slots. *)

val min_entry : int
(** [-2^31], the least value an entry slot holds. *)

val max_entry : int
(** [2^31 - 1], the greatest value an entry slot holds. *)

type spares
(** A pool of dead image buffers of full blocks: entry buffers and word
    buffers, each kind at its own size. *)

val spares : slots:int -> spares
(** An empty pool holding buffers of [slots] slots of either kind. *)

val recycle : spares -> _ t -> unit
(** Hand a dead image's buffer to the pool.  The caller must hold the
    only reference: the next build that draws it overwrites every slot.
    Images of another size are left to the GC. *)

val drop_spares : spares -> unit
(** Leave every pooled buffer to the GC. *)

val of_entries : ?spares:spares -> Slab.t -> pos:int -> len:int -> default:int -> entries
(** [of_entries src ~pos ~len ~default] has [len] slots, read from the
    signed 32-bit entries of [src] (4 bytes apiece, native byte order,
    the layout of an {!entries} image): slot [i] holds entry [pos + i]
    of [src] when that lies inside [src] and [default] otherwise.  The
    entries inside [src] are copied as one blit.  With [spares], the
    image is filled into a pooled buffer when one of [len] slots is
    available.  Raises [Invalid_argument] on a negative [pos] or [len],
    or a [default] outside [[min_entry, max_entry]]. *)

val length : entries -> int
(** Number of slots. *)

val get : entries -> int -> int
(** Slot [i], sign-extended. *)

val of_words : ?spares:spares -> Slab.t -> pos:int -> len:int -> words
(** [of_words src ~pos ~len] copies the 64-bit words [pos] ..
    [pos + len - 1] of [src] (8 bytes apiece, native byte order, the
    layout of a bitmap kept in a slab), filled into a pooled buffer as
    {!of_entries} does.  Raises [Invalid_argument] if that range is not
    inside [src]. *)

val word_count : words -> int
(** Number of slots. *)

val get_int64 : words -> int -> int64
(** Slot [i] as raw 64 bits, including words with bit 63 set. *)

val bytes : _ t -> int
(** Bytes of slab the image holds: 4 a slot for entries, 8 for words. *)
