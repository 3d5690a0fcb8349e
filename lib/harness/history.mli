(** Ablation across the three generations of WAFL write allocation that
    §III recounts:

    - 2006, Classical Waffinity: inode cleaning runs in the Serial
      affinity, excluding all client processing while it runs;
    - 2008, single cleaner thread: cleaning moves to one thread that runs
      in parallel with Waffinity but owns the metafiles (here: one
      cleaner thread + serialized infrastructure);
    - 2011, White Alligator: parallel cleaner threads over the bucket
      API, infrastructure parallelized in Waffinity.

    Not a figure in the paper, but the quantitative version of its
    historical narrative; also shows the latency cliff the Serial
    affinity inflicted on concurrent client operations. *)

type row = { era : string; result : Wafl_workload.Driver.result; gain : float }

val run : Exp.ctx -> row list
val print : row list -> unit
val shapes : row list -> (string * bool) list
