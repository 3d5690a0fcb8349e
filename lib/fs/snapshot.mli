(** Read-only snapshots.

    A snapshot pins the on-disk tree of one committed consistency point:
    its superblock plus a copy of the aggregate activemap words at that
    CP (the set of pvbns the snapshot references).  Because WAFL never
    overwrites in place, none of those blocks change afterwards — the
    active file system simply stops freeing them for reuse while the
    snapshot exists ({!Aggregate.pvbn_allocatable} consults {!holds}).

    Reads against a snapshot walk the persisted structures directly:
    superblock → inode chunk → block-map block → container chunk → data
    block, touching nothing in the live file system.  Each block comes
    through the caller's block reader, which is the RAID read path. *)

type t

val make : name:string -> sb:Layout.superblock -> words:int64 array -> t
val name : t -> string
val generation : t -> int
(** The CP generation this snapshot pins. *)

val superblock : t -> Layout.superblock
val holds : t -> int -> bool
(** Whether the snapshot references the given pvbn. *)

val held_words : t -> int64 array
(** The raw pinned-block words (not a copy; treat as read-only). *)

val read :
  t -> read_pvbn:(int -> Layout.block option) -> vol:int -> file:int -> fbn:int -> int64 option
(** Read a block as of the snapshot, fetching each block of the walk with
    [read_pvbn] (the aggregate's fault-aware [Aggregate.read_pvbn], so a
    media error is reconstructed and a block lost in a degraded group
    raises its [Corruption]).  [None] for holes or absent files/volumes;
    raises [Failure] if the persisted structure is malformed (which a
    correct allocator can never cause). *)
