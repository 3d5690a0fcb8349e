(** Loose accounting for global counters (paper §III-C).

    Cleaner threads may not update global counters directly — doing so
    per-VBN caused excessive synchronization overhead in the pre-White-
    Alligator design.  Instead each cleaner stages deltas in a local
    {!token}; tokens are applied to the global counters in a batched
    fashion from infrastructure context.  Counter reads may therefore lag
    their instantaneous logical value by the amount still staged in
    tokens; {!exact} gives the audited value.

    The table holds only these loose counters: free-space accounting
    (aggregate and per-volume free blocks, snapshot-held blocks), deleted
    files, and the cleaners' token cells.  The infrastructure flush
    charges CPU per updated cell, so they are part of the cost model.
    Counts that only observation needs live in the run's metrics
    registry instead ([Wafl_sim.Metrics], DESIGN.md §4.8). *)

type t
type token

val create : unit -> t
val token : t -> token
(** A new local token for one cleaner thread. *)

val read : t -> string -> int
(** Current (loose) value of a named counter; 0 if never touched. *)

val set : t -> string -> int -> unit
(** Direct assignment; only for initialization / recovery. *)

val add : t -> string -> int -> unit
(** Direct delta; only from contexts that already own the counter
    (infrastructure messages, mount). *)

val stage : token -> string -> int -> unit
(** Record a delta in the local token (no synchronization). *)

val cell : t -> string -> int ref
(** The named counter's storage cell (created zeroed if absent).  Hot
    paths cache the cell to skip the per-update name hash; mutating it is
    equivalent to {!add}. *)

val token_cell : token -> string -> int ref
(** Same, for a token: mutating the cell is equivalent to {!stage}.
    Cells survive {!flush} (they are zeroed, not removed). *)

val staged : token -> string -> int
val flush : t -> token -> int
(** Apply and clear every staged delta; returns how many distinct
    counters were updated (the infrastructure charges CPU per update). *)

val exact : t -> token list -> string -> int
(** The counter value with all given tokens logically applied — the
    "audited and corrected" read the paper describes for code paths that
    need precise values. *)
