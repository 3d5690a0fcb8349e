(** Page-mapped flash translation layer for one RAID group.

    A timing/wear/accounting model of a NAND device (DESIGN.md §4.13):
    payload content stays in {!Wafl_storage.Disk}'s block store while this
    layer tracks which physical flash page each logical page lives in,
    runs a background garbage-collection fiber over erase blocks, and
    charges program/read/erase time plus GC-induced host stalls in
    virtual time.  All behavior is seeded-deterministic: same seed and
    same host write history yield an identical {!signature}.

    The device model's constants: a page programs in 8 µs and reads in
    4 µs, a block erases in 400 µs; GC wakes when free blocks fall below
    half the spare pool and parks again at three quarters of it, and its
    victim is always the closed block with the fewest valid pages
    (greedy, ties broken by the seeded RNG). *)

type config = {
  pages_per_block : int;  (** erase-block size in pages (one page = one VBN) *)
  logical_capacity : float;
      (** advertised device capacity as a fraction of the lpn address
          space (default 1.0).  Below 1.0 the device is thin-provisioned:
          the "device fill" seen by the FTL is [valid / advertised]
          pages, decoupled from the file system's occupancy of the VBN
          space — how the flash experiments sweep fill without driving
          the aggregate itself to the allocator's limits.  Valid data
          beyond the advertised capacity is operator overcommit: the
          device runs out of free blocks and stalls the host. *)
  op_ratio : float;  (** over-provisioned spare capacity, fraction of logical *)
  streams : int;  (** host write streams; an internal GC stream is added *)
  prefill : float;
      (** fraction of the logical space mapped as data at create — the
          "device fill" axis of the flash experiments.  A non-zero
          prefill also seasons the device to steady state: deterministic
          random churn within the aged span drains the free pool to the
          GC-idle threshold, as on a long-written drive *)
  seed : int;
}

val default_config : config

type t

val create :
  ?obs:Wafl_obs.Trace.t -> Wafl_sim.Engine.t -> cfg:config -> lpns:int -> rg:int -> t
(** [create eng ~cfg ~lpns ~rg] sizes the device at
    [ceil(lpns * logical_capacity / pages_per_block) * (1 + op_ratio)]
    erase blocks (with a small floor so every stream can hold a block
    open), applies [cfg.prefill], and spawns the daemon GC fiber.  Must
    be called with [eng] not yet running or from fiber context.  [obs]
    (default disabled) receives stall spans, and [eng]'s registry the pull
    counters ["flash.host_pages"], ["flash.gc_pages"], ["flash.erases"],
    ["flash.gc_runs"] and ["flash.gc_stall_us"] (virtual µs host writers
    spent blocked by the GC: waiting out an in-flight erase, or parked on
    an exhausted free pool), one instrument per device, summed by
    name. *)

val host_write : t -> (int * int) list -> unit
(** [host_write t pairs] programs each [(lpn, stream)] pair in order from
    the calling service fiber: stalls when the device is out of free
    blocks, queues behind any in-flight GC erase (the die is busy — the
    steady-state GC push-back the experiments measure), then sleeps the
    aggregate program time.  Out-of-range stream ids are clamped. *)

val trim : t -> lpn:int -> unit
(** The file system freed this logical page: drop the mapping so GC need
    not relocate it.  Pure bookkeeping, callable outside fiber context. *)

val preload : t -> int list -> unit
(** Map pages with no virtual-time charge — create-time prefill and
    crash-recovery rebuild.  Callable outside fiber context. *)

(** {2 Introspection} *)

val lpn_count : t -> int
val block_count : t -> int

val logical_pages : t -> int
(** Advertised device capacity in pages; device fill is
    [valid_pages / logical_pages]. *)

val stream_appended : t -> int array
(** Lifetime pages appended per stream (index [streams] is the internal
    GC relocation stream). *)

val gc_pages : t -> int
val erases : t -> int

val trims : t -> int
val free_blocks : t -> int
val valid_pages : t -> int
val max_wear : t -> int

val block_of_lpn : t -> int -> int
(** Erase block currently holding [lpn], [-1] if unmapped. *)

val signature : t -> string
(** Deterministic digest of the full L2P table, wear array and WAF
    counters; the replay-identity tests compare runs by it. *)
