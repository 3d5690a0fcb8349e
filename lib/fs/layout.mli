(** On-disk layout: block payload formats and the superblock.

    Every piece of metadata is stored in blocks on the simulated disk, as
    in WAFL ("all metadata and user data are stored in files", §II-B).
    A consistency point rewrites dirty metadata blocks at fresh VBNs and
    then atomically publishes a superblock that points (transitively) at
    every live block; recovery reads only these structures.

    Constants give each 4 KiB block a realistic capacity: 32768 bitmap
    bits, 512 block-map or container entries, or 64 inode records.
    Entry and word payloads are {!Wafl_util.Packed} images, 8 bytes per
    slot, which the GC never scans. *)

val bits_per_map_block : int
(** Bits per allocation-bitmap block (32768 = 4 KiB of bits). *)

val entries_per_bmap_block : int
(** fbn->vvbn entries per user-file block-map block (512). *)

val entries_per_container_block : int
(** vvbn->pvbn entries per container-map block (512). *)

val inodes_per_block : int
(** Inode records per inode-file block (64). *)

type inode_rec = {
  file_id : int;
  nfbns : int;  (** one past the highest written file block number *)
  bmap_pvbns : (int * int) array;  (** (bmap block index, pvbn) pairs *)
}

type block =
  | Data of { vol : int; file : int; fbn : int; content : int64 }
      (** A user (or metafile-content) data block; [content] is the opaque
          write token used to verify read-back integrity. *)
  | Bmap of { vol : int; file : int; index : int; entries : Wafl_util.Packed.t }
      (** Block-map block [index] of a file: entry [i] maps
          fbn = index * entries_per_bmap_block + i to a vvbn (-1 = hole). *)
  | Inode_chunk of { vol : int; index : int; inodes : inode_rec list }
  | Container of { vol : int; index : int; entries : Wafl_util.Packed.t }
      (** vvbn -> pvbn translations (-1 = unmapped). *)
  | Vol_map of { vol : int; index : int; words : Wafl_util.Packed.t }
      (** Volume activemap chunk (vvbn allocation bitmap). *)
  | Agg_map of { index : int; words : Wafl_util.Packed.t }
      (** Aggregate activemap chunk (pvbn allocation bitmap). *)

type vol_rec = {
  vol_id : int;
  vvbn_space : int;
  inode_chunk_pvbns : (int * int) array;
  container_pvbns : (int * int) array;
  volmap_pvbns : (int * int) array;
}

type superblock = {
  generation : int;
  cp_count : int;
  vols : vol_rec list;
  aggmap_pvbns : (int * int) array;
  free_blocks : int;  (** persisted free-space counter, audited on mount *)
  snap_roots : (string * superblock) list;
      (** read-only snapshots: name and the superblock of the CP each one
          pins (nested snapshots lists are empty) *)
}

val data_codec : block Wafl_storage.Disk.codec
(** The disk store's codec for data images.  A [Data] block packs into
    two words: its key holds [vol] in bits 54–61, [file] in bits 32–53
    and [fbn] in bits 0–31, and its word is [content].  So a [Data]
    with [0 <= vol < 256], [0 <= file < 2^22] and [0 <= fbn < 2^32] is
    kept compact; any other [Data], and every metafile image, is stored
    boxed.  An unpacked image is a fresh value equal to the one
    written.  Vacated boxed entries hold an inode chunk of volume -1,
    which no user writes. *)

val key_of_data : vol:int -> file:int -> fbn:int -> int
(** The {!data_codec} key of a [Data] block with these fields, without
    building it: [-1] when they overflow the key, so the block is stored
    boxed.  The write path packs cleaned blocks with it. *)

val key_vol : int -> int
val key_file : int -> int

val key_fbn : int -> int
(** The fields a non-negative key packs. *)

val add_data :
  block Wafl_storage.Raid.batch -> int -> vol:int -> file:int -> fbn:int -> content:int64 -> unit
(** Append a [Data] block to a write batch in the disk's format: its
    {!key_of_data} and content word, building no image, or the boxed
    image when the fields overflow the key. *)
