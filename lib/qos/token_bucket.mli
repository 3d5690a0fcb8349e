(** Deterministic token bucket with bounded negative balance (GCRA
    style).

    The bucket refills at [rate_per_s] tokens per virtual second up to
    [burst].  {!reserve} takes one token; a negative balance represents
    ops already admitted but delayed into the future, so its magnitude is
    the depth of the admission queue.  [max_debt] bounds that depth:
    beyond it the op is shed with no state change.  All state is a pure
    function of the reservation sequence — same arrivals, same
    decisions. *)

type t

type decision =
  | Admit  (** run now *)
  | Delay of float  (** run after this many virtual µs (slot reserved) *)
  | Shed  (** queue full; dropped, no state change *)

val create : rate_per_s:float -> burst:float -> t
(** Starts full.  Requires [rate_per_s > 0] and [burst >= 1]. *)

val reserve : t -> now:float -> max_debt:float -> decision
(** Refill to [now], then take one token. *)

val tokens : t -> float

val state : t -> float * float
(** [(tokens, last_update)] — the full observable state, for the
    same-seed identity tests. *)
