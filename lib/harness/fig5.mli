(** Figure 5: sequential write with a parallel infrastructure, increasing
    the number of cleaner threads.

    Paper result: throughput rises nearly linearly with cleaner threads
    until the system CPUs saturate and can absorb no additional work. *)

type row = { threads : int; result : Wafl_workload.Driver.result }

val run : ?thread_counts:int list -> Exp.ctx -> row list
val print : row list -> unit
val shapes : row list -> (string * bool) list
