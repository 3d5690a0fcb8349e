(** Typed metrics registry: counters, gauges and virtual-time histograms.

    Components register instruments once at construction time (a name
    lookup) and update them on the hot path with a single field mutation.
    The tracer ({!Trace}) periodically samples every counter and gauge
    into the trace sink as a Chrome counter-event timeseries; read-side
    iteration is always name-sorted, so nothing depends on hash order. *)

type t
type counter
type gauge
type histo

val create : unit -> t

(** {1 Registration (find-or-create by name)} *)

val counter : t -> string -> counter
val gauge : t -> string -> gauge

val histogram : ?lo:float -> ?hi:float -> t -> string -> histo
(** Log-bucketed histogram of virtual-time values (default range
    0.01..1e9 virtual microseconds). *)

(** {1 Hot-path updates} *)

val incr : counter -> unit
val add : counter -> int -> unit
val addf : counter -> float -> unit
val set : gauge -> float -> unit
val observe : histo -> float -> unit

(** {1 Reading (deterministic: missing names read as 0 / [None])} *)

val counter_value : t -> string -> float
val gauge_value : t -> string -> float
val histo : t -> string -> Wafl_util.Histogram.t option

val counters : t -> (string * float) list
(** All counters, sorted by name. *)

val gauges : t -> (string * float) list
val histograms : t -> (string * Wafl_util.Histogram.t) list

val clear : t -> unit
