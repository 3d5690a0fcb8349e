(** Typed metrics registry: counters, gauges and virtual-time histograms.

    Every {!Engine} owns one registry ({!Engine.metrics}), and the
    components built on that engine publish into it, traced or not.
    Each count has one store (DESIGN.md §4.8).  A value only observation
    needs is a {e pushed} instrument: registered once at construction
    time (a name lookup) and updated on the hot path with a single field
    mutation.  A value a component already keeps for its own logic is
    published as a {e pull} instrument instead: a reader called only when
    the registry is read, so the component never keeps a second copy.
    Pull instruments registered under the same name sum in registration
    order; one name cannot be both pushed and pulled.  A recording
    tracer ([Wafl_obs.Trace]) periodically samples every counter and
    gauge of its engine's registry into the trace sink as a Chrome
    counter-event timeseries; read-side enumeration is in name order by
    construction. *)

type t
type counter
type gauge
type histo

val create : unit -> t

(** {1 Registration (find-or-create by name)} *)

val counter : t -> string -> counter
val gauge : t -> string -> gauge

val pull_counter : t -> string -> (unit -> float) -> unit
(** Publish a cumulative value the caller already keeps.  Raises
    [Invalid_argument] if the name is a pushed counter. *)

val pull_gauge : t -> string -> (unit -> float) -> unit
(** Same for a gauge. *)

val histogram : ?lo:float -> ?hi:float -> t -> string -> histo
(** Log-bucketed histogram of virtual-time values (default range
    0.01..1e9 virtual microseconds). *)

(** {1 Hot-path updates} *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit
val observe : histo -> float -> unit

(** {1 Reading (deterministic: missing names read as 0 / [None])} *)

val counter_value : t -> string -> float
val gauge_value : t -> string -> float
val histo : t -> string -> Wafl_util.Histogram.t option

val counters : t -> (string * float) list
(** All counters, pushed and pulled, sorted by name. *)

val gauges : t -> (string * float) list
val histograms : t -> (string * Wafl_util.Histogram.t) list
