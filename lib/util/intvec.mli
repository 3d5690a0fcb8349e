(** Growable [int] array with a default element, used for block maps and
    container maps (fbn -> VBN style mappings) that grow as files are
    extended.  Reads beyond the current length return the default rather
    than raising, which matches "hole" semantics in sparse files.

    Entries are signed 32-bit ints, 4 bytes apiece in one {!Slab}, off
    the heap: every value, the default included, must lie in
    [[-2^31, 2^31)] ({!Packed.min_entry} .. {!Packed.max_entry}).  A VBN
    is below 2^31 on every geometry the storage layer accepts. *)

type t

val create : ?initial_capacity:int -> default:int -> unit -> t
(** Raises [Invalid_argument] on a non-positive capacity or a default
    outside the 32-bit range. *)

val length : t -> int
(** One past the highest index ever written. *)

val capacity : t -> int
(** Entries in the backing array: {!set} below it never reallocates. *)

val bytes : t -> int
(** Bytes of slab behind the vector: 4 per entry of {!capacity}. *)

val get : t -> int -> int
val set : t -> int -> int -> unit
(** Grows the vector as needed; intermediate slots read as the default.
    Raises [Invalid_argument] on a negative index or a value outside
    [[-2^31, 2^31)]. *)

val extract : ?spares:Packed.spares -> t -> pos:int -> len:int -> Packed.entries
(** [extract t ~pos ~len] is the entry image of the logical range: slot
    [i] is [get t (pos + i)], the default where unset, blitted into a
    buffer from [spares] when one fits ({!Packed.of_entries}).  Raises
    [Invalid_argument] on a negative [pos] or [len]. *)

val iteri_set : t -> (int -> int -> unit) -> unit
(** Iterate over indices whose value differs from the default. *)

val bindings : t -> (int * int) array
(** The [(index, value)] pairs whose value differs from the default, in
    ascending index order. *)

val clear : t -> unit
(** Reset to empty, keeping the backing array at its high-water size. *)

val copy : t -> t
