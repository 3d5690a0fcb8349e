(** Figure 6: infrastructure core usage and throughput with and without
    infrastructure parallelization (cleaner threads parallel in both).

    Paper result: infrastructure usage grows from 0.94 to 2.35 cores,
    and the added metafile-processing bandwidth yields +106% throughput. *)

type row = { parallel : bool; result : Wafl_workload.Driver.result }

val run : Exp.ctx -> row list
val print : row list -> unit
val shapes : row list -> (string * bool) list
