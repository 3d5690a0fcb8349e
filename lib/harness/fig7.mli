(** Figure 7: random write — the same four permutations as Figure 4.

    Paper result: the outcome inverts relative to sequential write —
    parallelizing the infrastructure gives the larger benefit (+25%)
    versus the cleaner threads (+14%), because randomly distributed
    block frees touch many more allocation-metafile blocks; together
    they yield +50%. *)

val run : Exp.ctx -> Perms.row list
val print : Perms.row list -> unit
val shapes : Perms.row list -> (string * bool) list
