(** A bucket: a chunk of contiguous free VBNs on one target, the basic
    unit of allocation in White Alligator (paper §IV-C).

    A {e physical} bucket covers VBNs of a single data drive (so
    consuming it in order lays consecutive file blocks contiguously on
    that drive) and carries a reference to the tetris of its refill
    cycle.  A {e virtual} bucket covers vvbns of one FlexVol volume.

    A bucket is owned by exactly one cleaner thread between GET and PUT,
    so {!take} needs no locking — the amortization argument of §IV-C. *)

type target = Phys of { rg : int; drive : int } | Virt of { vol : int }

type t

val make : target:target -> ?tetris:Tetris.t -> vbns:int array -> unit -> t
(** [vbns] must be the ascending free VBNs of the chunk.  Physical
    buckets require [tetris]; virtual ones must omit it. *)

val target : t -> target
val tetris : t -> Tetris.t option
val capacity : t -> int
val remaining : t -> int
val is_exhausted : t -> bool

val take : t -> int option
(** Consume the next VBN; [None] when exhausted. *)

val take_vbn : t -> int
(** {!take} without the option: [-1] when exhausted. *)

val vbns : t -> int array
(** The chunk's ascending VBNs, shared with the bucket (do not mutate).
    The first {!consumed_count} were taken — what the infrastructure
    must commit to the allocation metafiles; the rest were never taken
    (bucket returned early at a CP boundary) and simply remain free. *)

val consumed_count : t -> int

val mark_committed : t -> unit
(** Set by the CP metafile pass when it commits consumed VBNs inline;
    tells the infrastructure not to commit them again on PUT. *)

val is_committed : t -> bool
