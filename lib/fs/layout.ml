let bits_per_map_block = 32768
let entries_per_bmap_block = 512
let entries_per_container_block = 512
let inodes_per_block = 64

type inode_rec = { file_id : int; nfbns : int; bmap_pvbns : (int * int) array }

type block =
  | Data of { vol : int; file : int; fbn : int; content : int64 }
  | Bmap of { vol : int; file : int; index : int; entries : Wafl_util.Packed.entries }
  | Inode_chunk of { vol : int; index : int; inodes : inode_rec list }
  | Container of { vol : int; index : int; entries : Wafl_util.Packed.entries }
  | Vol_map of { vol : int; index : int; words : Wafl_util.Packed.words }
  | Agg_map of { index : int; words : Wafl_util.Packed.words }

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

(* A data image's key: vol in bits 54-61, file in bits 32-53, fbn in
   bits 0-31.  62 bits, so a key is never negative. *)
let file_bits = 22
let fbn_bits = 32

let key_of_data ~vol ~file ~fbn =
  if vol lsr 8 = 0 && file lsr file_bits = 0 && fbn lsr fbn_bits = 0 then
    (((vol lsl file_bits) lor file) lsl fbn_bits) lor fbn
  else -1

let key_vol key = key lsr (file_bits + fbn_bits)
let key_file key = (key lsr fbn_bits) land ((1 lsl file_bits) - 1)
let key_fbn key = key land ((1 lsl fbn_bits) - 1)
let data_key = function Data { vol; file; fbn; _ } -> key_of_data ~vol ~file ~fbn | _ -> -1
let data_word = function Data { content; _ } -> content | _ -> 0L

let unpack_data key content =
  Data { vol = key_vol key; file = key_file key; fbn = key_fbn key; content }

(* What the disk's vacated boxed entries hold: an image of no volume. *)
let data_codec =
  {
    Wafl_storage.Disk.key = data_key;
    word = data_word;
    unpack = unpack_data;
    vacant = Some (Inode_chunk { vol = -1; index = -1; inodes = [] });
  }

let[@inline] add_data batch vbn ~vol ~file ~fbn ~content =
  let key = key_of_data ~vol ~file ~fbn in
  if key >= 0 then Wafl_storage.Raid.add_compact batch vbn ~key ~word:content
  else Wafl_storage.Raid.add batch vbn (Data { vol; file; fbn; content })
