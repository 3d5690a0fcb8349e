(** Virtual-time synchronization primitives built on {!Engine} parking.

    A fiber that waits for an event (a drain, log space, a CP's
    completion) or receives from an empty channel (a RAID group's
    request queue, a cleaner's work queue, the bucket caches) parks until
    another fiber wakes it, so waiting costs virtual time.  Locks are not
    modelled here: the model charges a flat [Cost.lock_acquire] where the
    paper takes a lock.  All wait queues are FIFO, preserving
    determinism.

    Every operation must be called from fiber context. *)

(** Plain FIFO wait queue, for ad-hoc waits (e.g. tetris completion). *)
module Waitq : sig
  type t

  val create : Engine.t -> t
  val wait : t -> unit
  (** Park the calling fiber on the queue. *)

  val wake_one : t -> bool
  (** Wake the oldest waiter; [false] if the queue was empty. *)

  val wake_all : t -> int
  (** Wake every waiter; returns how many were woken. *)
end

(** Unbounded FIFO channel (multi-producer, multi-consumer).  A send is a
    release and a receive an acquire for the race detector. *)
module Channel : sig
  type 'a t

  val create : Engine.t -> 'a t

  val send : 'a t -> 'a -> unit
  (** Never parks. *)

  val recv : 'a t -> 'a
  (** Parks while the channel is empty. *)

  val length : 'a t -> int
end
