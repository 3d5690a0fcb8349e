(** The White Alligator infrastructure (paper §IV-B2, §IV-D).

    The infrastructure is the only component that reads or writes
    allocation metafiles, and all of its work runs as Waffinity messages:
    per-drive bucket refills and commits run in [Agg_range] affinities
    (or all in the single [Aggregate_vbn] affinity when [parallel] is
    false — the paper's "serialized infrastructure" instrumentation);
    volume-side work runs in [Vol_range] / [Volume_vbn] likewise.

    Physical buckets follow the §IV-D cycle: one bucket per data drive is
    carved from the current Allocation Area of each RAID group; when all
    of a group's buckets have been returned and refilled they are
    collectively reinserted into the bucket cache, guaranteeing equal
    progress down each drive.  Virtual (vvbn) buckets refill
    independently per bucket — volumes have no drive-fairness constraint.

    Cleaner threads interact with this module only through {!Api}. *)

type config = {
  parallel : bool;  (** parallel infrastructure (Range affinities) vs serialized *)
  chunk : int;  (** VBNs per bucket; "typically a multiple of 64" *)
  ranges : int;  (** Range-affinity instances per metafile *)
  vol_buckets_per_cycle : int;  (** concurrent vvbn buckets per volume *)
}

val stage_capacity : int
(** Frees a cleaner stages before committing them (64). *)

type t

val create :
  ?obs:Wafl_obs.Trace.t -> Wafl_waffinity.Scheduler.t -> Wafl_fs.Aggregate.t -> config -> t
(** Registers every existing volume and kicks off the initial refill
    cycles (the bucket cache is being filled as this returns).  [obs]
    (default disabled) is handed to each cycle's {!Tetris}.  The engine's
    registry gets the pull counters ["infra.vbns_allocated"] (VBNs committed as
    used, physical + virtual), ["infra.vbns_freed"],
    ["infra.metafile_blocks"] (distinct metafile-block touches across all
    commit and free messages — the quantity that separates random from
    sequential write, §V-A2) and ["infra.messages"]. *)

val register_volume : t -> Wafl_fs.Volume.t -> unit
val aggregate : t -> Wafl_fs.Aggregate.t
val scheduler : t -> Wafl_waffinity.Scheduler.t

(** {1 Operations used by {!Api}} *)

val get_phys : t -> Bucket.t
(** Blocking receive from the physical bucket cache. *)

val get_virt : t -> Wafl_fs.Volume.t -> Bucket.t
val put : t -> Bucket.t -> unit
(** Enqueue a returned bucket for commit + refill (posts an
    infrastructure message; does not block). *)

val commit_frees :
  ?owner:int -> t -> target:Stage.target -> vbns:int array -> token:Wafl_fs.Counters.token -> unit
(** Post messages committing staged frees to the allocation metafiles,
    split by metafile block range so they parallelize across Range
    affinities; each message commits its range's VBNs in batch order.
    The serialized infrastructure's one message keeps [vbns], so the
    caller must not reuse it.  Also applies the cleaner's loose-accounting token.
    [owner] is the staging cleaner's index; when sanitizing, the token
    flush probes that cleaner's token domain (see DESIGN.md §4.7). *)

val meta_affinity : t -> Wafl_fs.Aggregate.meta_ref -> Wafl_waffinity.Affinity.t
(** Range affinity under which a metafile block's CP write-out runs
    (single [Aggregate_vbn] lane when serialized). *)

val post_meta : t -> affinity:Wafl_waffinity.Affinity.t -> (unit -> unit) -> unit
(** Post a metafile write-out message (CP phase B fan-out). *)

val flush_token : ?owner:int -> t -> Wafl_fs.Counters.token -> unit
(** Post a message applying a cleaner's loose-accounting token even when
    no frees are staged (end-of-CP flush).  [owner] as in
    {!commit_frees}. *)

val phys_cache_length : t -> int
val virt_cache_length : t -> Wafl_fs.Volume.t -> int

(** {1 CP support} *)

val quiesce_commits : t -> unit
(** Park until every posted commit message (bucket commits and free
    commits) has been applied to the allocation metafiles; called by the
    CP engine before it serializes those metafiles. *)

val live_tetrises : t -> Tetris.t list
(** Current tetris of every RAID group, for CP-boundary flushing. *)
