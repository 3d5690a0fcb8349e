(** References into the tree of metafile blocks a consistency point
    publishes under its superblock.  A reference names one block by
    kind, owner and index; the table that points at it gives its pvbn.
    This is the one place that knows which payload a reference must find
    on disk: recovery, snapshot reads and the CP's write repair go
    through {!of_block} and {!fetch}, and recovery and fsck enumerate a
    tree with {!iter}. *)

type t =
  | Bmap_block of { vol : int; file : int; index : int }
  | Inode_chunk of { vol : int; index : int }
  | Container_chunk of { vol : int; index : int }
  | Vol_map_chunk of { vol : int; index : int }
  | Agg_map_chunk of { index : int }

exception Corruption of string
(** An on-disk block is unreadable, or does not match the metadata that
    references it — the invariant a broken allocator violates. *)

val of_block : Layout.block -> t option
(** The reference a metafile payload names itself as; [None] for data. *)

val to_string : t -> string
(** Kind, owner and index, e.g. ["vol 0 inode chunk 3"]. *)

val fetch : read:(int -> Layout.block option) -> t -> int -> Layout.block
(** [fetch ~read r pvbn] reads [pvbn] through [read] (the aggregate's
    fault-aware RAID read) and returns the block, which is the one [r]
    names.  Raises {!Corruption} naming [r] and [pvbn] when the block is
    missing, is another block, or [read] raises {!Corruption}. *)

val iter :
  Layout.superblock -> inodes:(int -> Layout.inode_rec list) -> (t -> int -> unit) -> unit
(** Visit every metafile reference of a tree with its pvbn: the
    activemap chunks, then per volume its volume-map, container and inode
    chunks, then the block-map blocks of the inode records [inodes vol]
    returns, which is called after the volume's inode chunks are visited
    (so a caller that loads them hands back what it loaded). *)
