(* Fixture for the exports pass: [live] has a user in another unit,
   [equal] and [hash] are taken by a functor the unit is passed to, and
   [dead] has none and must be reported as unused. *)

type t = int

val equal : t -> t -> bool
val hash : t -> int
val live : int -> int
val dead : int -> int
