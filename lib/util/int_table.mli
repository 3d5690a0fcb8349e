(** A hash table keyed by small non-negative ints that enumerates its
    bindings in ascending key order without a sort.

    For small, long-lived maps by id: trace labels by fiber, cleaner
    stages and infra state by volume, and the flash temperature
    classifier's per-volume and per-file tables.  The bindings live in a
    chained [Hashtbl] specialized to [int] keys (a multiplicative hash,
    no polymorphic hash call), and a bitmap with one bit per key, up to
    the largest key ever bound, records which keys are present, so a
    miss is one bit test.  Rebinding a key allocates nothing, and a
    value is stored as it is passed.  There is no single-key removal: a
    table is filled, enumerated and cleared as a whole.  The dirty
    buffers, keyed per write and unbound one at a time, use
    {!Word_table} instead. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int

val replace : 'a t -> int -> 'a -> unit
(** Bind a key, replacing any previous value.  Raises [Invalid_argument]
    on a negative key. *)

val mem : 'a t -> int -> bool
val find_opt : 'a t -> int -> 'a option

val find : 'a t -> int -> 'a
(** Like {!find_opt} without the option box; raises [Not_found] on an
    unbound key. *)

val bindings : 'a t -> (int * 'a) list
(** Every binding, in ascending key order. *)

val clear : 'a t -> unit
(** Empty the table, keeping its bucket array (one word per two
    bindings at the high-water size) and its bitmap. *)
