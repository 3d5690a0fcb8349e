(** A stage: the free-side analogue of a bucket (paper §IV-A).

    Cleaner threads push VBNs freed by overwrites into a thread-local
    stage (no locking); when the stage fills, the cleaner sends its
    contents to the infrastructure, which commits the frees to the
    allocation metafiles.  One stage per target per cleaner: physical
    frees (pvbns) and per-volume virtual frees (vvbns) are staged
    separately because they commit to different metafiles under
    different affinities. *)

type target = Phys | Virt of { vol : int }

type t

val create : target:target -> capacity:int -> t
val capacity : t -> int
val length : t -> int
val is_empty : t -> bool

val add : t -> int -> [ `Ok | `Full ]
(** Push a freed VBN into the stage's fixed [capacity]-sized array
    (allocates nothing); [`Full] means the stage just reached capacity
    and must be drained now.  Raises [Invalid_argument] on a full
    stage. *)

val drain : t -> int array
(** Take every staged VBN, ascending, as a fresh array and empty the
    stage. *)
