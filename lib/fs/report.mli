(** Human-readable state reports for a mounted aggregate — the `df` /
    `snap list` style views an operator of the real system would use,
    plus allocation-quality summaries used by examples and tests. *)

val space : Aggregate.t -> string
(** Totals, free/used/snapshot-held blocks, per-volume vvbn usage, and
    the buffer-cache hit rate. *)

val snapshots : Aggregate.t -> string
(** One line per snapshot: name, pinned generation, held blocks. *)

val allocation_areas : Aggregate.t -> string
(** Per-RAID-group occupancy of Allocation Areas (free blocks in the
    emptiest / median / fullest AA) — the state the §IV-D selection
    policy operates on. *)

val perf : ?elapsed:float -> Wafl_sim.Metrics.t -> string
(** Operator performance summary from a run's metrics registry
    ([Wafl_sim.Engine.metrics]): CP count and duration percentiles with
    per-phase virtual-time totals, per-affinity-kind queue wait/service
    p50/p99, cleaner-pool activity (utilization when [elapsed] — the
    run's virtual duration — is given), RAID I/O service times and
    tetris stripe fill.  When the run saw overload machinery engage, an
    overload section reports NVLog admission stall time and back-to-back
    CP episodes, and a QoS section reports admitted/delayed/shed ops with
    queue-wait percentiles (DESIGN.md §4.11).  Sections with no data are
    omitted. *)

val faults : Aggregate.t -> string
(** Fault-injection counters (media errors, transient retries, degraded
    reads, rebuild progress), read from the attached fault plan, and any
    RAID group currently degraded.  One line when no plan is attached.
    Writes refused on an exhausted NVRAM
    ({!Aggregate.exhausted_writes}) are reported here too — they indicate
    admission control failed to throttle clients against CP progress. *)
