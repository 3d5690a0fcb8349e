(** Array-backed FIFO ring for the simulator's long-lived queues: the
    engine's runnable fibers, each Waffinity node's messages, the wait
    queues and channels of [Sync].

    Unlike [Stdlib.Queue] it links no cells.  A [Queue] push writes the
    new cell into the previous cell's [next] field, so once one cell of a
    busy queue has been promoted, the minor GC promotes every cell pushed
    after it, with the element it holds, even after it is popped.  Here a
    push writes into a slot of one array and a pop overwrites that slot
    with the caller's [dummy], so a popped element is garbage as soon as
    its taker drops it, and only elements still queued at a minor
    collection are promoted.

    Nothing is allocated per push or pop, apart from resizing.  The ring
    doubles when full and halves once it is at most one-eighth full, so a
    burst's peak capacity is given back as the queue drains, and a length
    hovering at a threshold never resizes back and forth. *)

type 'a t

val create : dummy:'a -> 'a t
(** An empty ring.  [dummy] fills every slot that holds no element; it
    is never returned. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val capacity : 'a t -> int
(** Slots in the backing array: none until the first push. *)

val push : 'a t -> 'a -> unit
(** Add at the back. *)

val pop : 'a t -> 'a
(** Remove and return the front element, clearing its slot.  Raises
    [Invalid_argument] when the ring is empty. *)

val peek : 'a t -> 'a
(** The front element, left in place.  Raises [Invalid_argument] when the
    ring is empty. *)
