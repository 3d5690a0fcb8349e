(** A fixed-length byte buffer outside the OCaml heap.

    The home of every table that grows with the aggregate, the working
    set or the log and holds no pointers: disk pages, metafile images,
    block and container maps, the dirty-buffer table, the NVLog ring,
    bitmaps and the buffer cache.  The bytes are a C allocation; the
    heap holds only a small custom block that points at them, so the
    major GC neither scans them nor counts them in the heap it sizes its
    headroom to (DESIGN.md §4.9).  Making a slab reports its bytes to
    the GC, which speeds the next major slice, so owners keep and reuse
    their slabs rather than allocate one per use.

    Multi-byte accessors are unaligned and native-endian, and every
    offset is in bytes.  The plain ones are bounds-checked
    ([Invalid_argument] when out of range); the [unsafe_] ones are not,
    for owners that keep their offsets in range themselves.  Once
    inlined, no accessor allocates. *)

type t

val create : int -> t
(** [create n] is a slab of [n] bytes, contents unspecified. *)

val make : int -> char -> t
(** [make n c] is a slab of [n] bytes, each [c]. *)

val empty : t
(** The slab of 0 bytes. *)

val length : t -> int
(** Bytes in the slab. *)

val get32 : t -> int -> int
(** [get32 b off] is the signed 32-bit value at byte [off],
    sign-extended. *)

val set32 : t -> int -> int -> unit
(** [set32 b off v] stores the low 32 bits of [v] at byte [off]. *)

val get64 : t -> int -> int64
(** [get64 b off] is the 64-bit word at byte [off]. *)

val set64 : t -> int -> int64 -> unit
val unsafe_get32 : t -> int -> int
val unsafe_set32 : t -> int -> int -> unit
val unsafe_get64 : t -> int -> int64
val unsafe_set64 : t -> int -> int64 -> unit

val fill : t -> pos:int -> len:int -> char -> unit
(** Set bytes [pos .. pos + len - 1] to a byte. *)

val blit : t -> int -> t -> int -> int -> unit
(** [blit src src_pos dst dst_pos len] copies [len] bytes, as
    [Bytes.blit] does: correct when the two ranges overlap in one
    slab. *)

val copy : t -> t
(** A fresh slab with the same bytes. *)
