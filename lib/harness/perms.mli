(** The four-permutation experiment shared by Figures 4 and 7: every
    combination of {parallel cleaner threads} x {parallel infrastructure},
    using the instrumented-kernel methodology of §V-A (the same White
    Alligator code with components forcibly serialized). *)

type row = {
  name : string;
  result : Wafl_workload.Driver.result;
  gain : float;  (** throughput gain over the serialized baseline, % *)
}

val run : workload:Wafl_workload.Driver.workload -> Exp.ctx -> row list
(** Rows in order: serialized baseline, parallel infrastructure only,
    parallel cleaners only, full White Alligator.  The "parallel
    cleaners" configurations run 6 cleaner threads. *)

val print : title:string -> row list -> unit
