(** A hash table from non-negative ints to unboxed [int64] words.

    Built for the aggregate's dirty buffers (one binding per buffered
    client write, keyed by file, fbn and CP generation; see {!File}).
    Slots live in one {!Slab}, off the heap: each is two 64-bit words,
    the key plus one (zero marks an empty slot) and the value.
    Collisions probe linearly and {!remove} shifts the rest of the run
    back into the hole, so there are no tombstones.  The table doubles when an insert
    would take it past half full and never shrinks.  Once it has grown
    to its working size, {!replace}, {!find}, {!mem} and {!remove}
    allocate nothing: a value is copied in, not kept as a box. *)

type t

val create : unit -> t
(** An empty table of 16 slots. *)

val length : t -> int

val replace : t -> int -> int64 -> unit
(** Bind a key, replacing any previous value.  Raises [Invalid_argument]
    on a negative key. *)

val mem : t -> int -> bool

val find : t -> int -> int64
(** Raises [Not_found] on an unbound key. *)

val remove : t -> int -> unit
(** Unbind a key; a no-op if it is unbound. *)
