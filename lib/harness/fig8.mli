(** Figure 8: OLTP — throughput at peak load and latency at the "knee"
    (off-peak) load, for 1-4 static cleaner threads and dynamic tuning.

    Paper result (20-core Flash Pool system): going from one to two
    threads raises peak throughput and lowers off-peak latency; more
    than two static threads adds lock contention and thread-management
    overhead (−3% throughput, higher latency); dynamic tuning matches
    the best static choice on both metrics at once. *)

type config = Static of int | Dynamic

type row = {
  config : config;
  peak : Wafl_workload.Driver.result;  (** closed loop, no think time *)
  knee : Wafl_workload.Driver.result;  (** reduced offered load *)
}

val run : Exp.ctx -> row list
val print : row list -> unit
val shapes : row list -> (string * bool) list
