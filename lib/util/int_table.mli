(** A hash table keyed by small non-negative ints that enumerates its
    bindings in ascending key order without a sort.

    Built for a file's dirty buffers (fbn -> content).  The bindings live
    in a chained [Hashtbl] specialized to [int] keys (a multiplicative
    hash, no polymorphic hash call), and a bitmap with one bit per key,
    up to the largest key ever bound, records which keys are present.
    Rebinding a key allocates nothing, and a value is stored as it is
    passed: a boxed [int64] content stays the one box that the NVRAM log
    entry and the block written at the CP share.  There is no single-key
    removal: a table is filled, enumerated and cleared as a whole.

    Open addressing was measured against this and lost on memory: at a
    load factor of at most one half it holds 4-8 words per binding
    against the chained table's ~5, and a cleared table keeps either
    that high-water capacity (a prefill's whole file) or regrows it
    every consistency point.  Both raised the benchmark's peak RSS. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int

val replace : 'a t -> int -> 'a -> unit
(** Bind a key, replacing any previous value.  Raises [Invalid_argument]
    on a negative key. *)

val mem : 'a t -> int -> bool
val find_opt : 'a t -> int -> 'a option

val bindings : 'a t -> (int * 'a) list
(** Every binding, in ascending key order. *)

val clear : 'a t -> unit
(** Empty the table, keeping its bucket array (one word per two
    bindings at the high-water size) and its bitmap. *)
