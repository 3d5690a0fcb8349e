(** Deterministic fault plan for the storage substrate.

    A fault plan is a seeded schedule of storage failures: latent media
    errors on specific VBNs (discovered when the block is read), transient
    per-I/O failures with a configurable probability (retried by
    {!Raid.submit} with exponential backoff in virtual time), permanent
    write errors on specific VBNs (the CP engine re-allocates the affected
    blocks), whole-disk failure within a RAID group at a virtual time
    (flipping the group into degraded mode and starting a background
    rebuild), and a torn NVRAM tail applied at crash.

    The plan is attached to the {!Disk} ({!Disk.set_fault}), so it is part
    of the persistent image: latent errors, a failed drive and rebuild
    progress all survive a simulated crash, and recovery reads run against
    the same degraded substrate.  All randomness comes from the plan's own
    {!Wafl_util.Rng} stream, so every failure schedule is replayable from
    its seed.

    The plan also accumulates the global fault counters (media errors
    seen, degraded reads served, transient retries, rebuilt blocks);
    {!Raid} bumps them as faults are encountered. *)

type disk_failure = {
  fail_rg : int;
  fail_drive : int;  (** data-drive index within the group *)
  fail_at : float;  (** virtual time the drive dies *)
  mutable tripped : bool;  (** failure noticed by the RAID layer *)
  mutable rebuilt_to : int;  (** DBNs below this are reconstructed on the spare *)
  mutable rebuild_done : bool;
}

type t

val create :
  ?media_errors:int list ->
  ?write_errors:int list ->
  ?transient_p:float ->
  ?max_retries:int ->
  ?torn_tail:int ->
  ?disk_failures:(int * int * float) list ->
  ?crash_at:float ->
  seed:int ->
  unit ->
  t
(** [media_errors]: VBNs with latent unreadable sectors.  [write_errors]:
    VBNs whose writes fail permanently (bad sector discovered at write;
    retries are pointless).  [transient_p] (default 0.0): probability that
    one I/O attempt fails transiently.  [max_retries] (default 6): attempts
    before a transient failure is treated as permanent.  [torn_tail]
    (default 0): NVRAM records torn off the filling half at crash.
    [disk_failures]: [(rg, drive, at)] whole-disk losses.  [crash_at]:
    virtual time the crash harness should crash at (0.0 = none). *)

val random : seed:int -> total_vbns:int -> raid_groups:(int * int) list -> horizon:float -> t
(** Derive a randomized plan from a seed: a crash point inside the
    horizon, and independently chosen media errors {e or} one disk failure
    (never both, so single-parity reconstruction always succeeds), a
    transient-failure probability, and a torn tail.  [raid_groups] is
    [(data_drives, parity_drives)] per group as in {!Geometry.create}. *)

(** {1 Queries (used by [Disk] / [Raid])} *)

val media_error : t -> int -> bool
val clear_media_error : t -> int -> unit
(** Reconstructing a block repairs the sector (re-write remaps it). *)

val write_fails : t -> int -> bool
val transient_now : t -> bool
(** Draw from the plan's RNG: does this I/O attempt fail transiently? *)

val max_retries : t -> int
val torn_tail : t -> int
val crash_at : t -> float
val failure_for : t -> rg:int -> now:float -> disk_failure option
(** The group's disk failure if it is (or should now be) active and not
    yet fully rebuilt; marks it tripped. *)

(** {1 Mutators (tests / examples build plans incrementally)} *)

val add_media_error : t -> int -> unit
val add_write_error : t -> int -> unit
val set_transient_p : t -> float -> unit
val fail_disk : t -> rg:int -> drive:int -> at:float -> unit

(** {1 Counters} *)

val note_media_error : t -> unit
val note_degraded_read : t -> unit
val note_transient_retry : t -> unit
val note_rebuild_block : t -> unit
val note_unrecoverable : t -> unit

val media_errors_seen : t -> int
val degraded_reads : t -> int
val transient_retries : t -> int
val rebuild_blocks : t -> int
val unrecoverable_reads : t -> int

(** {1 Chaos plan} *)

type chaos = {
  publish_before_quiesce : bool;
      (** the CP publishes its superblock before the io-flush quiesce and
          write repair: a broken commit ordering the crash harness must catch *)
  force_b2b : bool;  (** book every CP as back-to-back (accounting only) *)
  hard_dwell_us : float;  (** hard-watermark dwell booked per admission (accounting only) *)
}
(** A run's deliberate defects, which tests switch on to prove that their
    checks have teeth.  Immutable, and given to the aggregate when it is
    built, so runs with different plans can share worker domains. *)

val no_chaos : chaos
