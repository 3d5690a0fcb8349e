let bits_per_map_block = 32768
let entries_per_bmap_block = 512
let entries_per_container_block = 512
let inodes_per_block = 64

type inode_rec = { file_id : int; nfbns : int; bmap_pvbns : (int * int) array }

type block =
  | Data of { vol : int; file : int; fbn : int; content : int64 }
  | Bmap of { vol : int; file : int; index : int; entries : Wafl_util.Packed.t }
  | Inode_chunk of { vol : int; index : int; inodes : inode_rec list }
  | Container of { vol : int; index : int; entries : Wafl_util.Packed.t }
  | Vol_map of { vol : int; index : int; words : Wafl_util.Packed.t }
  | Agg_map of { index : int; words : Wafl_util.Packed.t }

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
  free_blocks : int;
  snap_roots : (string * superblock) list;
}
