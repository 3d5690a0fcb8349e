(** Central CPU cost model for the simulation, in virtual microseconds.

    The reproduction's performance results are *shapes* produced by real
    data-structure traffic (how many bitmap blocks were touched, how many
    lock acquisitions happened, how many messages were dispatched); this
    table only prices the primitive operations.  One default table is
    used by every experiment — see EXPERIMENTS.md for the calibration
    rationale against the paper's Ivy Bridge platform. *)

type t = {
  (* scheduling and synchronization *)
  lock_acquire : float;  (** charged flat per lock the real system takes *)
  msg_dispatch : float;  (** Waffinity message dispatch + completion overhead *)
  thread_wake : float;  (** waking an inactive cleaner thread *)
  (* client-side (protocol + front-end file system) per operation *)
  client_write : float;  (** per 4 KiB sequential-stream write op, excluding write allocation *)
  client_write_random : float;
      (** per 4 KiB random write op — random I/O does far more client-side
          work (cache misses, RAID read-modify context, per-op protocol
          state) than a sequential stream *)
  client_read : float;  (** per read op served from a cache *)
  read_miss : float;  (** extra CPU + transfer cost when a read misses the buffer cache *)
  client_meta : float;  (** per metadata op in the NFS mix *)
  (* cleaner-thread work *)
  clean_inode_overhead : float;  (** per inode-clean message *)
  clean_buffer : float;  (** per dirty buffer: USE a VBN, update block map, tetris enqueue *)
  stage_free : float;  (** per freed VBN pushed to a stage *)
  (* infrastructure work (runs as Waffinity messages) *)
  bitmap_scan_word : float;  (** per 64-bit bitmap word examined while filling buckets *)
  metafile_block_touch : float;  (** per distinct metafile block read + marked dirty *)
  bitmap_bit_update : float;  (** per bit set / cleared within an already-touched block *)
  bucket_fixed : float;  (** fixed cost per bucket refill or commit *)
  stage_commit_fixed : float;  (** fixed cost per free-stage commit message *)
  summary_update : float;  (** allocation-area summary bookkeeping per bucket *)
  (* storage *)
  raid_io_dispatch : float;  (** CPU cost to assemble and submit one tetris I/O *)
  device_write_per_block : float;  (** device service time per block written *)
  device_base_latency : float;  (** fixed device latency per I/O *)
  parity_read_penalty : float;  (** extra service time when a stripe write is partial *)
  transient_retry_backoff : float;
      (** base backoff before retrying a transiently failed I/O; doubles per
          attempt, so retry latency shows up in CP duration *)
  rebuild_block : float;
      (** device service time to reconstruct + write one block during a
          RAID rebuild (reads the surviving drives of the stripe) *)
  (* consistency points *)
  cp_fixed : float;  (** fixed work to start / finalize a CP *)
}

val default : t
(** The calibrated table used by all experiments. *)

val free : t
(** All-zero table, for unit tests that want pure logic with no timing. *)
