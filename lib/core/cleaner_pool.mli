(** The pool of parallel inode cleaner threads (paper §IV-B1, §V-B).

    Each cleaner is a fiber with a private work channel; cleaners bypass
    Waffinity entirely and interact with allocation state only through
    the {!Api} operations and their thread-local {!Stage}s and
    loose-accounting tokens.  Work is assigned to the least-loaded
    {e active} cleaner; the number of active cleaners is adjusted either
    statically or by the dynamic tuner ({!set_active}).

    A {!work} value is one cleaner message: a batch of inode segments
    (batched inode cleaning, §V-C, groups many small inodes into one
    message to amortize the per-message overhead; large inodes are split
    into multiple segments so several cleaners can process one file). *)

type segment = {
  vol : Wafl_fs.Volume.t;
  file : Wafl_fs.File.t;
  fbns : int array;
      (** holds the segment's CP buffers at [first] to [first + len - 1],
          ascending fbns of [file]'s snapshot; each buffer's content is
          looked up ({!Wafl_fs.File.cp_content}) as it is cleaned *)
  first : int;
  len : int;
  whole_inode : bool;  (** charge the per-inode overhead for this segment *)
}

type work = segment list

type t

val create : ?obs:Wafl_obs.Trace.t -> Infra.t -> max_threads:int -> initial_threads:int -> t
(** [obs] (default disabled) wraps each cleaner work message in a
    ["clean work"] span.  Pool utilization goes to the engine's registry
    under the ["cleaner."] metric prefix: active-thread and pending-message gauges,
    a work-message counter, and the pull counters ["cleaner.busy_us"],
    ["cleaner.buffers"], ["cleaner.messages"] and ["cleaner.get_waits"]
    (times a cleaner parked in GET because the bucket cache was empty —
    the backpressure signal of an underpowered infrastructure). *)

val engine : t -> Wafl_sim.Engine.t
val max_threads : t -> int
val active : t -> int

val set_active : t -> int -> unit
(** Clamp to [1, max_threads].  Activation charges the thread-wake cost
    to the caller; deactivated cleaners first finish their queued work. *)

val submit : t -> work -> unit
(** Assign one message to the least-loaded active cleaner. *)

val wait_idle : t -> unit
(** Park until every submitted message has been fully processed. *)

val flush_and_wait : t -> unit
(** Make every cleaner (active or not) PUT its partially used buckets and
    commit its stages and token, then wait for the acknowledgements.
    Called at the end of a CP's cleaning phase. *)

(** {1 Statistics} *)

val inodes_cleaned : t -> int

val utilization_busy : t -> float
(** Cumulative virtual µs cleaners spent busy (for the dynamic tuner). *)
