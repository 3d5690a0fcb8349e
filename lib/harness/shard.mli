(** Fleet-sharded aggregate experiment on the partitioned engine.

    The fleet-scale roadmap item needs many aggregates / volume groups
    advancing concurrently on the host.  This experiment shards a fleet
    of [shards] independent aggregate stacks (engine, RAID, NVLog, CP
    engine, cleaner pool, client population) across
    {!Wafl_sim.Partition} partitions and couples them the way a real
    cluster is coupled — coarsely: partition 0 runs a global CP-epoch
    coordinator that broadcasts a checkpoint tick to every shard each
    epoch (the aggregate-wide CP barrier), and every shard reports its
    completed-operation count back to the coordinator on each tick
    (fleet telemetry).  Both directions ride {!Wafl_sim.Partition.post}
    with the conservative lookahead delay.

    The outcome is byte-identical at any [domains] (tested in
    test_domains.ml); on a multicore host wall time scales with
    [min shards domains]. *)

type row = {
  shard : int;
  ops : int;  (** client writes completed during the measurement window *)
  cps : int;  (** checkpoints completed during the measurement window *)
  util : float;  (** engine utilization over the measurement window *)
}

type outcome = {
  rows : row list;
  epochs : int;  (** global CP epochs broadcast during measurement *)
  fleet_reported : int;
      (** sum of the per-shard op totals the coordinator last heard —
          nonzero proves shard -> coordinator messaging works *)
  horizon : float;  (** final virtual time *)
  telemetry : Wafl_obs.Rollup.snapshot;
      (** per-shard rollup snapshots (each fed only by its own shard's
          fibers, into its own engine's registry) merged
          deterministically; volume ids are namespaced by shard *)
}

val run :
  ?scale:float -> ?shards:int -> ?domains:int -> ?seed:int -> unit -> outcome
(** [run ~scale ~shards ~domains ~seed ()] — [shards] (default 4)
    partitions, fanned over [domains] (default 1) worker domains. *)

val shapes : outcome -> (string * bool) list
val print : shards:int -> domains:int -> outcome -> unit
