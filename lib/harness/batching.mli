(** §V-C (in-text result): batched inode cleaning on an NFS-style mix.

    Paper result: with many dirty inodes that each have few dirty buffers,
    associating multiple inodes with a single cleaner message raises
    throughput from 21.2 K to 22.0 K ops/s per client (+3.8%) and lowers
    latency from 6.7 ms to 6.5 ms. *)

type row = { batching : bool; result : Wafl_workload.Driver.result }

val run : Exp.ctx -> row list
val print : row list -> unit
val shapes : row list -> (string * bool) list
