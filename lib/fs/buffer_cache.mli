(** Read buffer cache.

    WAFL keeps recently used blocks in a global buffer cache (the
    companion design in Denz et al., ICPP 2016 — reference [20] of the
    paper).  This model tracks which pvbns are resident with an exact
    LRU policy so the read path can distinguish cache hits from disk
    misses; the workload driver charges the extra miss cost.  Dirty
    buffers never reach this cache — they live in the per-file dirty
    tables until their consistency point retires them.

    Capacity is in blocks.  The structure is an open-addressing int
    index over an array-slot doubly-linked LRU list: O(1) probe, insert
    and evict, with no allocation once the arrays have grown to the
    working set (they double up to [capacity] slots as the cache fills).
    Both arrays are {!Wafl_util.Slab}s of 64-bit words, off the heap.
    An index entry packs a pvbn and its slot into one word, and a slot
    packs its two list links into one, 31 bits a field: so pvbns and the
    capacity are below 2^31, as on every geometry the storage layer
    accepts. *)

type t

val create : capacity:int -> t
(** Raises [Invalid_argument] on a capacity that is not positive or not
    below 2^31. *)

val capacity : t -> int
val length : t -> int

val probe : t -> int -> bool
(** [probe t pvbn] is [true] on a hit (the entry is refreshed to MRU).
    On a miss the block is inserted, evicting the LRU entry if full.
    Raises [Invalid_argument] on a pvbn that is negative or not below
    2^31. *)

val contains : t -> int -> bool
(** Lookup without side effects. *)

val invalidate : t -> int -> unit
(** Drop an entry if present (e.g. when its block is freed and reused). *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int
val hit_rate : t -> float
(** hits / (hits + misses); 0.0 before any probe. *)
