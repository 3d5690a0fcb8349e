(** Nonvolatile operation log (paper §II-C).

    Operations that change file-system state are logged here so the
    client can be answered before the data reaches disk; a consistency
    point later flushes the accumulated state, after which the covered
    log prefix is discarded.  The log content survives a simulated crash
    ({!Aggregate.crash} keeps it), and recovery replays it on top of the
    last committed CP.

    The log has two halves, as in ONTAP: while a CP drains one half, new
    operations fill the other.  {!append} reports when the filling half
    has reached its capacity, which is the primary CP trigger.

    Records are fixed-width slots of four unboxed words in one ring, a
    {!Wafl_util.Slab} off the heap, that grows on demand: the CP half
    and the filling half are two contiguous ranges of it, so
    {!cp_begin} and {!cp_commit} only move indices, and {!append_write}
    (the client write path) allocates nothing once the ring has
    grown.  Only the crash and recovery paths ({!tear},
    {!replay_ops}) decode slots back into {!op} values. *)

type op =
  | Create_vol of { vol : int; vvbn_space : int }
  | Create_file of { vol : int; file : int }
  | Write of { vol : int; file : int; fbn : int; content : int64 }
  | Delete_file of { vol : int; file : int }

type t

exception Exhausted
(** Raised by {!append} when the whole NVRAM (both halves) is full: the
    operation was {e not} logged.  The write path converts this into a
    typed shed ([`Log_exhausted]) counted in {!Counters}; with watermark
    back-pressure enabled it is unreachable, because admission stops at
    the hard watermark before the log can fill. *)

type watermarks = {
  soft : float;  (** fill fraction that triggers an early CP and pacing *)
  hard : float;  (** fill fraction at which admission parks until a CP commits *)
  pace : float;  (** max per-write pacing delay (virtual µs) at the hard mark *)
}
(** Back-pressure thresholds as fractions of total NVRAM (both halves).
    Requires [0 < soft < hard <= 1] and [pace >= 0]. *)

val create : ?half_capacity:int -> ?watermarks:watermarks -> unit -> t
(** [half_capacity] (default 16384) is the number of operations one half
    can hold before a CP should be triggered.  [watermarks] (default
    none: legacy nearly-full throttling only) enables watermark
    back-pressure in {!Aggregate.wait_for_log_space}; it lives with the
    log so it survives {!Aggregate.crash}/[recover]. *)

val append : t -> op -> [ `Ok | `Half_full ]
(** Log an operation into the filling half.  Returns [`Half_full] when
    this append reached (or exceeded) the half's capacity — the CP
    trigger.  Raises {!Exhausted} (without logging the operation) if the
    whole NVRAM (both halves) is full — the caller must throttle clients
    against CP progress before that point. *)

val append_write : t -> vol:int -> file:int -> fbn:int -> content:int64 -> [ `Ok | `Half_full ]
(** [append t (Write { vol; file; fbn; content })] without building the
    record. *)

val is_half_full : t -> bool
(** CP-trigger threshold reached. *)

val is_nearly_full : t -> bool
(** The filling half is close to exhausting NVRAM; clients must park
    until the running CP commits. *)

val is_exhausted : t -> bool
(** Both halves full: the next {!append} would raise {!Exhausted}. *)

val capacity : t -> int
(** Total operations NVRAM can hold (both halves). *)

val pending : t -> int
(** Operations in the filling half (not yet covered by a CP snapshot). *)

val in_cp : t -> int
(** Operations in the half currently being flushed by a CP. *)

val total_pending : t -> int
(** [pending + in_cp]: all operations occupying NVRAM. *)

val watermarks : t -> watermarks option

val cp_begin : t -> unit
(** Swap halves: everything logged so far is now covered by the starting
    CP.  Raises [Invalid_argument] if a CP half is already active. *)

val cp_commit : t -> unit
(** Discard the CP half after the superblock is durable. *)

val tear : t -> records:int -> op list
(** Simulate a torn NVRAM tail at crash: the newest [records] operations
    of the filling half still readable (whose DMA was still in flight —
    their replies never left the box) become unreadable, so a second
    tear takes the records just older than the first one's.  Clamped to
    the filling half's readable length; returns the torn operations
    oldest-first so the crash harness can retract those acknowledgements
    from its oracle.
    {!replay_ops} then stops cleanly at the first torn record instead of
    replaying garbage, and {!recover_reset} discards them. *)

val torn : t -> int
(** Records currently torn (0 except between {!tear} and recovery). *)

val replay_ops : t -> op list
(** All surviving operations in order (CP half first, then the filling
    half up to the first torn record); used by crash recovery. *)

val recover_reset : t -> unit
(** After a crash: merge any CP half back into the filling half (that CP
    never committed, so its operations are live again) and clear the
    CP-active flag. *)
