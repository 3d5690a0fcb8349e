(** Bounded-memory sliding-window telemetry rollups (virtual time).

    A rollup keeps a fixed ring of time windows.  Each sealed window holds
    counter deltas, gauge readings and histogram deltas, read by name
    from its engine's {!Metrics} registry ({!watch}), plus per-volume
    activity rows with log-bucketed latency sketches.  Memory
    is O(volumes x windows), independent of run length, with an explicit
    per-volume byte budget checked at {!create}.

    Strictly observe-only: the rollup never spawns fibers, consumes
    virtual time, or draws randomness.  Windows seal lazily inside the
    write-side calls ({!observe_write}, {!count}, {!snapshot}), so a run
    with a rollup attached is bit-identical to one without.  Windows are
    aligned to the absolute virtual-time grid ([w_seq = floor (now /
    window_us)]), which makes per-shard snapshots mergeable by sequence
    number ({!merge_snapshots}). *)

type config = {
  window_us : float;  (** window width in virtual microseconds *)
  windows : int;  (** sealed windows retained in the ring *)
  vol_budget_bytes : int;
      (** hard per-volume memory budget; {!create} rejects configs whose
          ring would exceed it *)
}

val default_config : config
(** 8 windows of 100ms virtual time, 4 KiB per volume.  Every latency
    sketch has 4 buckets/decade over [1, 1e7] us. *)

type vol_row = {
  vr_writes : int;  (** write ops completed this window *)
  vr_admitted : int;
  vr_throttled : int;
  vr_shed : int;
  vr_completed : int;
  vr_backlog : int;  (** cumulative admitted - completed at seal time *)
  vr_lat : Wafl_util.Histogram.t;  (** write latency sketch *)
}

type window = {
  w_seq : int;  (** absolute grid index: floor (start / window_us) *)
  w_start : float;
  w_end : float;
  w_counters : (string * float) list;  (** per-window deltas, name-sorted *)
  w_gauges : (string * float) list;  (** sampled at seal, name-sorted *)
  w_sketches : (string * Wafl_util.Histogram.t) list;
      (** per-window histogram deltas, name-sorted *)
  w_vols : (int * vol_row) list;  (** vol-id-sorted *)
}

type snapshot = { s_window_us : float; s_windows : window list  (** oldest first *) }
type t

val create : ?config:config -> Wafl_sim.Engine.t -> t
(** Raises [Invalid_argument] if the configured ring cannot fit in
    [vol_budget_bytes] per volume. *)

val vol_window_bytes : int
(** Approximate bytes one volume costs per retained window (row plus
    latency sketch); the budget check is
    [(windows + 1) * vol_window_bytes <= vol_budget_bytes] (the +1 is the
    open window). *)

(** {1 Feeding} *)

val watch : t -> counters:string list -> gauges:string list -> histograms:string list -> unit
(** Name what the rollup reads from its engine's registry
    ({!Wafl_sim.Engine.metrics}) at each seal: every
    sealed window records each counter's delta since the previous seal
    (first window: since [watch]), each gauge's current value, and each
    histogram's bucket-wise delta.  Missing counters and gauges read 0,
    so each watched name appears in every window; a histogram appears
    once its instrument exists.  A later [watch] replaces the earlier
    one. *)

val observe_write : t -> vol:int -> float -> unit
(** Record one completed write for [vol] with the given end-to-end
    latency (virtual us).  Seals due windows first. *)

val count : t -> vol:int -> [ `Admitted | `Throttled | `Shed | `Completed ] -> unit
(** Bump a per-volume admission counter.  [`Admitted] / [`Completed]
    also feed the cumulative backlog.  Seals due windows first. *)

val on_seal : t -> (t -> window -> unit) -> unit
(** Register a callback invoked synchronously (inside the sealing
    write-side call) for every sealed window, in registration order.
    Callbacks must themselves be observe-only. *)

(** {1 Reading} *)

val recent : t -> int -> window list
(** Up to [n] most recent sealed windows, newest first.  Does not seal. *)

val snapshot : t -> snapshot
(** Seals due windows, then returns the retained sealed windows oldest
    first.  The open (partial) window is excluded. *)

val snapshot_to_json : snapshot -> Json.t
val snapshot_of_json : Json.t -> snapshot
(** Byte-exact round-trip: [snapshot_of_json (snapshot_to_json s)]
    re-renders to the same JSON. *)

val merge_snapshots : (int * snapshot) list -> snapshot
(** Deterministically merge per-shard snapshots: windows align by
    [w_seq], counters and gauges sum, sketches merge bucket-wise, and
    volume ids are namespaced as [(ns lsl 16) lor vol] so shards cannot
    collide.  All snapshots must share [s_window_us]. *)
