(** Figure 9: throughput versus latency at increasing client load, for
    2/3/4 static cleaner threads and dynamic tuning (sequential write).

    Paper result: peak throughput needs four threads but off-peak latency
    is best with three; dynamic tuning gets the best of both — lower
    latency at moderate load and at least the throughput of any static
    setting at high load — by running fewer threads for short intervals
    when cleaning demand is low. *)

type config = Static of int | Dynamic
type point = { offered_level : int; result : Wafl_workload.Driver.result }
type series = { config : config; points : point list }

val run : ?levels:int -> Exp.ctx -> series list
val print : series list -> unit
val shapes : series list -> (string * bool) list
