(** The White Alligator API: GET, USE and PUT (paper §IV-A, Figure 2).

    These are the only operations cleaner threads perform against
    allocation state; everything they touch is either bucket-local
    (lock-free, owned between GET and PUT) or a lock-protected queue
    whose cost is amortized over a whole bucket of VBNs.

    USE assigns one VBN from the bucket to a dirty buffer and enqueues
    the buffer into the per-RAID-group tetris (step 3 of Figure 2); PUT
    returns the bucket to the infrastructure's used-bucket queue and
    drops the tetris reference (step 5). *)

val get_phys : Infra.t -> Bucket.t
(** Step 2: acquire a bucket of physical VBNs from the bucket cache;
    parks if the cache is momentarily empty. *)

val get_virt : Infra.t -> Wafl_fs.Volume.t -> Bucket.t
(** Acquire a bucket of virtual VBNs for one volume. *)

val use : Bucket.t -> payload:Wafl_fs.Layout.block -> int option
(** Consume the next VBN of a physical bucket and enqueue the buffer
    into the tetris; [None] when the bucket is exhausted (PUT it and GET
    a fresh one).  Raises [Invalid_argument] on a virtual bucket. *)

val use_data : Bucket.t -> vol:int -> file:int -> fbn:int -> content:int64 -> int
(** {!use} for a user data block, given by its fields: the block enters
    the tetris as its codec key and content word, and no image is built
    (unless the fields overflow the key: then it is enqueued boxed, as
    the disk would store it).  The VBN, or [-1] when the bucket is
    exhausted. *)

val use_virt : Bucket.t -> int option
(** Consume the next vvbn of a virtual bucket. *)

val take_deferred : Bucket.t -> int option
(** CP metafile pass only: consume a VBN {e without} enqueuing a payload
    yet (metafile contents are serialized after all allocation bits have
    settled).  Pair with {!enqueue_deferred}. *)

val enqueue_deferred : Bucket.t -> vbn:int -> payload:Wafl_fs.Layout.block -> unit

val put : Infra.t -> Bucket.t -> unit
(** Release the tetris reference (submitting the I/O if this was the last
    outstanding bucket) and hand the bucket to the infrastructure for
    commit and refill. *)
