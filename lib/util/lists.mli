(** List helpers the standard library (5.1) lacks. *)

val rev_take : int -> 'a list -> 'a list * 'a list
(** [rev_take k l] splits [l] after its first [k] elements (all of them
    when [l] is shorter).  The prefix comes back reversed, as an
    accumulator builds it; the rest comes back as is.  [List.rev] the
    prefix for source order. *)
