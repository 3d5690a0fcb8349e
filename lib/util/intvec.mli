(** Growable [int] array with a default element, used for block maps and
    container maps (fbn -> VBN style mappings) that grow as files are
    extended.  Reads beyond the current length return the default rather
    than raising, which matches "hole" semantics in sparse files. *)

type t

val create : ?initial_capacity:int -> default:int -> unit -> t
val default : t -> int
val length : t -> int
(** One past the highest index ever written. *)

val get : t -> int -> int
val set : t -> int -> int -> unit
(** Grows the vector as needed; intermediate slots read as the default. *)

val extract : ?spares:Packed.spares -> t -> pos:int -> len:int -> Packed.t
(** [extract t ~pos ~len] is the packed image of the logical range:
    slot [i] is [get t (pos + i)], the default where unset, filled into
    a buffer from [spares] when one fits ({!Packed.of_ints}).  Raises
    [Invalid_argument] on a negative [pos] or [len]. *)

val iteri_set : t -> (int -> int -> unit) -> unit
(** Iterate over indices whose value differs from the default. *)

val clear : t -> unit
(** Reset to empty, keeping the backing array at its high-water size. *)

val copy : t -> t
