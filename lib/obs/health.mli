(** Health watchdog: typed rules evaluated over {!Rollup} windows.

    The watchdog is not a fiber — it registers a {!Rollup.on_seal}
    callback and evaluates its rules synchronously whenever a window
    seals, emitting structured events into a bounded log.  Strictly
    observe-only: it never schedules work, consumes virtual time, or
    draws randomness, so attaching it cannot perturb a run.

    Rules read well-known rollup names (registered by the driver's
    telemetry wiring): counters [cp.b2b], [nvlog.hard_dwell_us],
    [flash.gc_stall_us], [rebuild.blocks], [trace.drops]; gauge
    [rebuild.active]; per-volume write-latency sketches from
    {!Rollup.vol_row.vr_lat}. *)

type severity = Info | Warn | Crit

type rule =
  | B2b_streak of { cps : int; windows : int }
      (** >= [cps] back-to-back CPs in each of the last [windows]
          consecutive windows. *)
  | Hard_dwell of { frac : float }
      (** NVLog hard-watermark dwell exceeds [frac] of the window. *)
  | Victim_p99 of { factor : float; baseline_windows : int; min_samples : int }
      (** A volume's write p99 exceeds [factor] x its own baseline (the
          merge of its previous [baseline_windows] windows); both sides
          need [min_samples] samples. *)
  | Gc_stall of { frac : float }
      (** Flash GC stall time exceeds [frac] of the window. *)
  | Rebuild_stall of { windows : int }
      (** RAID rebuild active but zero blocks repaired for [windows]
          consecutive windows. *)
  | Trace_drops  (** The user-attached trace ring dropped events. *)

val default_rules : rule list
(** Conservative thresholds: quiet on healthy fig4-9 runs. *)

type event = {
  ev_seq : int;  (** sealing window's grid index *)
  ev_time : float;  (** sealing window's end (virtual us) *)
  ev_severity : severity;
  ev_rule : string;  (** stable rule tag, e.g. ["b2b_streak"] *)
  ev_vol : int option;  (** offending volume, for per-volume rules *)
  ev_detail : string;
}

type t

val create : ?capacity:int -> rules:rule list -> Rollup.t -> t
(** Attach a watchdog to [rollup] (registers an [on_seal] callback).
    The event log holds at most [capacity] (default 256) events; later
    events are counted in {!dropped} and discarded. *)

val events : t -> event list
(** Oldest first. *)

val dropped : t -> int
val severity_str : severity -> string

val event_to_json : event -> Json.t
val event_of_json : Json.t -> event
