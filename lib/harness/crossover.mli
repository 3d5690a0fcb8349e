(** Crossover sweep between the paper's two write regimes.

    Figures 4 and 7 are the endpoints of a spectrum: sequential streams
    free blocks that cluster in a few allocation-metafile blocks, random
    overwrites scatter them.  Sweeping the random fraction locates the
    crossover — the mix beyond which infrastructure work overtakes
    cleaner work per operation, which is the paper's §V-A2 explanation
    made quantitative. *)

type row = { random_fraction : float; result : Wafl_workload.Driver.result }

val run : Exp.ctx -> row list
(** Random fractions 0, 0.25, 0.5, 0.75 and 1. *)

val print : row list -> unit
val shapes : row list -> (string * bool) list
