(** Packed block images: an immutable, fixed-length vector of 64-bit
    slots stored 8 bytes apiece in one [Bytes.t].

    This is the on-disk form of every metafile block whose payload is a
    run of numbers (block-map and container entries, activemap words).
    A bytes block holds no pointers, so the major GC never scans an
    image's contents, however many images the simulated disk retains.
    Builders write every slot exactly once; nothing pre-fills. *)

type t

val of_ints : int array -> pos:int -> len:int -> default:int -> t
(** [of_ints a ~pos ~len ~default] has [len] slots; slot [i] holds
    [a.(pos + i)] when [pos + i < Array.length a] and [default]
    otherwise.  Raises [Invalid_argument] on a negative [pos] or [len]. *)

val of_int64s : int64 array -> pos:int -> len:int -> t
(** [of_int64s a ~pos ~len] holds the raw bits of [a.(pos)] ..
    [a.(pos + len - 1)].  Raises [Invalid_argument] if that range is not
    inside [a]. *)

val length : t -> int
(** Number of slots. *)

val get : t -> int -> int
(** Slot [i] as an [int]: exact for anything stored by {!of_ints}. *)

val get_int64 : t -> int -> int64
(** Slot [i] as raw 64 bits: exact for anything stored by {!of_int64s},
    including words with bit 63 set. *)
