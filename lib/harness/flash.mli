(** Flash media-model experiment (DESIGN.md §4.13).

    Attaches a {!Wafl_flash.Ftl} to every RAID group and measures write
    amplification (WAF), erase-block GC activity and GC-induced host
    stalls under a skewed random-overwrite workload, sweeping device fill,
    over-provisioning and the multi-stream [streams] policy of
    {!Wafl_core.Walloc}.  One row adds the PR-6 overload substrate
    (bursty open-loop arrivals under NVLog watermarks) so back-to-back
    CPs interfere with flash GC. *)

type scenario = Steady of { fill : float; op : float; streaming : bool } | B2b_interference

val scenario_name : scenario -> string

type row = { scenario : scenario; r : Wafl_workload.Driver.result }

val run : Exp.ctx -> row list
(** All scenarios, deterministic per seed (the spec seed comes from
    {!Exp.spec_base}). *)

val waf : row -> float
(** Measured write amplification over the window. *)

val gc_stall_us : row -> float
val write_p99 : row -> float

val print : row list -> unit
val shapes : row list -> (string * bool) list
