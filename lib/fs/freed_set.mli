(** VBNs freed by the running consistency point.

    A VBN freed during a CP stays frozen (not reusable) until that CP's
    superblock is published.  Membership is one bit test.  The members
    are also kept on one list per metafile map block (the unit that owns
    the bitmap words, and the sanitizer domain a free is probed under),
    so {!release} costs one step per member rather than a pass over the
    whole VBN space. *)

type t

val create : bits:int -> t
(** An empty set over VBNs [0 .. bits - 1]. *)

val add : t -> int -> unit
(** Freeze a VBN that is not already a member. *)

val mem : t -> int -> bool

val slab_bytes : t -> int
(** Bytes of slab behind the set: one bit per VBN and the lists. *)

val release : t -> (int -> unit) -> unit
(** [release t f] calls [f] on every member and empties the set. *)
