(** Figure 4: sequential write — throughput per client and core usage for
    all four cleaner/infrastructure parallelization permutations.

    Paper result: +7% (infrastructure only), +82% (cleaners only), +274%
    (both), with ~6.23 cores of write-allocation work (2.35
    infrastructure + 3.88 cleaners) and all cores saturated at peak. *)

val run : Exp.ctx -> Perms.row list
val print : Perms.row list -> unit
val shapes : Perms.row list -> (string * bool) list
(** The qualitative claims this reproduction must preserve. *)
