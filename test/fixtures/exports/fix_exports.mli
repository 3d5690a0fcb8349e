(* Fixture for the exports pass: [live] has a user in another unit,
   [dead] has none and must be reported as unused. *)

val live : int -> int
val dead : int -> int
