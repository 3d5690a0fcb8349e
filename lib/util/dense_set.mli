(** A set of small non-negative integers: a flag byte per possible
    member plus a vector of the members.

    Built for the per-CP dirty sets (metafile blocks, container and inode
    chunks, dirty files), whose members are dense indices: {!add} and
    {!mem} are one byte test with no hashing and no allocation once the
    set has grown to its working size, {!clear} costs one step per
    member, and the sorted enumerations need no hash-order fold.
    Memory is one byte per index up to the largest member ever added,
    plus one word per member slot at the high-water count. *)

type t

val create : unit -> t
(** An empty set; storage grows on the first {!add}. *)

val add : t -> int -> unit
(** Idempotent.  Raises [Invalid_argument] on a negative member. *)

val mem : t -> int -> bool
(** [false] for any index never added (negative ones included). *)

val cardinal : t -> int

val clear : t -> unit
(** Empty the set, keeping its storage. *)

val elements : t -> int list
(** The members in ascending order. *)

val elements_desc : t -> int list
(** The members in descending order. *)
