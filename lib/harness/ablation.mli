(** Ablations of White Alligator's design choices (paper §IV-C/§IV-D):

    - {b chunk size}: "It is possible to allocate VBNs one at a time by
      using the White Alligator API (i.e., a bucket size of one)."  The
      sweep quantifies the three advantages §IV-C claims for chunked
      buckets: amortized infrastructure work, amortized synchronization,
      and contiguous on-disk layout for sequential reads.
    - {b allocation-area policy}: §IV-D selects the AA with the most free
      blocks; the sweep compares against first-fit to show the effect on
      full-stripe writes (objective 1).
    - {b range affinities}: how many Range instances the infrastructure
      needs before serialization stops hurting (random write). *)

type chunk_row = { chunk : int; result : Wafl_workload.Driver.result }
type ranges_row = { ranges : int; result : Wafl_workload.Driver.result }

val run_chunk : Exp.ctx -> chunk_row list
(** Chunk sizes 1, 8, 64, 128 and 256 VBNs. *)

val print_chunk : chunk_row list -> unit
val shapes_chunk : chunk_row list -> (string * bool) list

val run_ranges : Exp.ctx -> ranges_row list
(** 1, 2, 4, 8 and 16 Range instances. *)

val print_ranges : ranges_row list -> unit
val shapes_ranges : ranges_row list -> (string * bool) list
