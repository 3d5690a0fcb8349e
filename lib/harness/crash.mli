(** Randomized crash-point harness (robustness counterpart of the
    performance experiments).

    For each seed: derive a {!Wafl_storage.Fault.random} plan, run a
    random write workload against a full stack (Waffinity, cleaners, CP
    engine) with the plan attached to the disk, crash at the
    plan-chosen virtual instant — possibly mid-CP — tearing the
    scheduled NVRAM tail, then recover on a fresh engine and check the
    two durability invariants:

    - every write acknowledged before the crash (minus the torn-tail
      records, whose replies never left the box) reads back with the
      exact content written;
    - {!Wafl_fs.Aggregate.fsck} passes on the recovered image after a
      post-recovery CP (which exercises the failed-write repair path
      against the still-degraded substrate).

    The workload, fault schedule and crash point are all derived from
    the seed, so any failure is replayable. *)

type outcome = {
  seed : int;
  crash_time : float;  (** virtual µs at which the crash was taken *)
  mid_cp : bool;  (** a CP was running when the crash hit *)
  cp_phase : string;  (** CP engine phase at the crash instant *)
  cps_before_crash : int;
  last_ack_us : float;  (** virtual µs at which the last write before the crash was acknowledged *)
  acked : int;  (** distinct acknowledged blocks the oracle checked *)
  torn : int;  (** NVRAM records torn off at the crash *)
  lost : int;  (** acked blocks missing or wrong after recovery *)
  fsck_failure : string option;
  disk_failure_active : bool;  (** a RAID group was degraded at crash *)
  media_errors : int;
  transient_retries : int;
  degraded_reads : int;
  rebuild_blocks : int;
  b2b_cps : int;  (** back-to-back CPs before the crash (overload mode) *)
  stall_us : float;  (** client virtual µs parked in watermark admission *)
  exhausted_writes : int;
      (** writes refused on exhausted NVRAM before the crash; watermark
          admission must keep this 0 even in overload mode *)
  flash_gc_pages : int;
      (** FTL GC relocations before the crash (flash mode); > 0 means
          the crash landed on a device with GC underway *)
  flash_erases : int;  (** erase-block reclaims before the crash *)
  races : int;  (** race-detector reports across crash run + recovery (0 unless sanitizing) *)
}

val passed : outcome -> bool
(** No acknowledged write lost and fsck clean. *)

val run_seeds :
  ?ops:int -> ?fbn_space:int -> ?horizon:float -> ?sanitize:bool -> ?overload:bool ->
  ?flash:bool -> ?chaos:Wafl_storage.Fault.chaos -> ?domains:int -> first_seed:int ->
  count:int -> unit -> outcome list
(** [count] outcomes for consecutive seeds from [first_seed], in seed
    order, each one crash-recover-verify cycle.  [domains] (default 1)
    fans the seeds out over that many worker domains
    ({!Wafl_util.Pool}); outcomes are byte-identical at any domain count.

    [ops] (default 100_000) caps each workload; the client keeps writing
    until the horizon so the crash lands mid-activity.  [horizon]
    (default 60_000 µs) bounds the virtual run; the plan crashes in its
    back 70%.  [sanitize] (default false) runs both the crash run and the
    recovery engine under the race detector and isolation checker.
    [overload] (default false) runs a small NVRAM with watermark
    back-pressure under a seeded bursty open-loop arrival plan, so crash
    points land inside throttled and back-to-back-CP windows;
    acknowledged-write read-back is verified the same way (a shed write
    is never acknowledged).  [flash] (default false) attaches a
    nearly-full {!Wafl_flash.Ftl} to every RAID group so the crash
    routinely lands mid-GC-cycle; the volatile L2P table is rebuilt on
    recovery and read-back must still hold.  [chaos] (default
    [Fault.no_chaos]) is the run's chaos plan; the recovered aggregate
    keeps it, so the post-recovery CP runs under it too. *)

val summarize : outcome list -> string
(** Multi-line human-readable summary: pass/fail count, how many seeds
    crashed mid-CP, how many ran degraded, aggregate fault counters. *)
