open Wafl_util

type t = {
  id : int;
  vvbn_space : int;
  files : (int, File.t) Hashtbl.t;
  mutable next_file_id : int;
  (* dirty-inode lists: [dirty] is the front list, [cp] the snapshot *)
  mutable dirty : File.t list;
  dirty_set : (int, unit) Hashtbl.t;
  mutable cp : File.t list;
  (* container map *)
  container : Intvec.t;
  container_locations : Intvec.t;
  dirty_containers : (int, unit) Hashtbl.t;
  (* volume activemap *)
  vol_map : Bitmap_file.t;
  recent_frees : Freed_set.t; (* vvbns frozen until the CP commits *)
  mutable last_dirty_container : int; (* last chunk marked; skips the replace *)
  (* inode file *)
  inode_locations : Intvec.t;
  dirty_inodes : (int, unit) Hashtbl.t;
  mutable zombies : File.t list;
}

let create ~id ~vvbn_space =
  if vvbn_space <= 0 then invalid_arg "Volume.create: bad vvbn space";
  {
    id;
    vvbn_space;
    files = Hashtbl.create 64;
    next_file_id = 0;
    dirty = [];
    dirty_set = Hashtbl.create 64;
    cp = [];
    container = Intvec.create ~default:(-1) ();
    container_locations = Intvec.create ~default:(-1) ();
    dirty_containers = Hashtbl.create 16;
    vol_map = Bitmap_file.create ~bits:vvbn_space;
    recent_frees = Freed_set.create ~bits:vvbn_space;
    last_dirty_container = -1;
    inode_locations = Intvec.create ~default:(-1) ();
    dirty_inodes = Hashtbl.create 4;
    zombies = [];
  }

let id t = t.id
let vvbn_space t = t.vvbn_space

let fresh_file_id t =
  let id = t.next_file_id in
  t.next_file_id <- id + 1;
  id

let inode_chunk_of_file file_id = file_id / Layout.inodes_per_block
let mark_inode_dirty t file = Hashtbl.replace t.dirty_inodes (inode_chunk_of_file (File.id file)) ()

let add_file t file =
  if Hashtbl.mem t.files (File.id file) then invalid_arg "Volume.add_file: duplicate id";
  Hashtbl.add t.files (File.id file) file;
  if File.id file >= t.next_file_id then t.next_file_id <- File.id file + 1;
  mark_inode_dirty t file

let file t fid = Hashtbl.find_opt t.files fid

let file_exn t fid =
  match file t fid with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Volume %d: no file %d" t.id fid)

(* Sorted by file id: recovery and fsck walk this list, so its order must
   not depend on hash internals. *)
let files t =
  Hashtbl.fold (fun _ f acc -> f :: acc) t.files [] (* lint-ok: sorted below *)
  |> List.sort (fun a b -> Int.compare (File.id a) (File.id b))
let file_count t = Hashtbl.length t.files

let mark_deleted t file = t.zombies <- file :: t.zombies

let take_zombies t =
  let z = List.rev t.zombies in
  t.zombies <- [];
  z

let remove_file t fid =
  if not (Hashtbl.mem t.files fid) then invalid_arg "Volume.remove_file: no such file";
  Hashtbl.remove t.files fid;
  Hashtbl.replace t.dirty_inodes (inode_chunk_of_file fid) ()

let note_dirty t file =
  if not (Hashtbl.mem t.dirty_set (File.id file)) then begin
    Hashtbl.add t.dirty_set (File.id file) ();
    t.dirty <- file :: t.dirty
  end

let dirty_inode_count t = List.length t.dirty

let cp_snapshot t =
  let snapshot = List.rev t.dirty in
  t.dirty <- [];
  Hashtbl.clear t.dirty_set;
  List.iter File.cp_snapshot snapshot;
  t.cp <- snapshot;
  snapshot

let cp_files t = t.cp

let cp_done t =
  List.iter File.cp_done t.cp;
  t.cp <- []

let check_vvbn t vvbn =
  if vvbn < 0 || vvbn >= t.vvbn_space then
    invalid_arg (Printf.sprintf "Volume %d: vvbn %d out of range" t.id vvbn)

let pvbn_of_vvbn t vvbn =
  check_vvbn t vvbn;
  Intvec.get t.container vvbn

let map_vvbn t ~vvbn ~pvbn =
  check_vvbn t vvbn;
  let old = Intvec.get t.container vvbn in
  Intvec.set t.container vvbn pvbn;
  let chunk = vvbn / Layout.entries_per_container_block in
  if chunk <> t.last_dirty_container then begin
    Hashtbl.replace t.dirty_containers chunk ();
    t.last_dirty_container <- chunk
  end;
  old

let vol_map t = t.vol_map
let note_freed_vvbn t vvbn = Freed_set.add t.recent_frees vvbn
let vvbn_reusable t vvbn = not (Freed_set.mem t.recent_frees vvbn)
let clear_recent_frees t = Freed_set.release t.recent_frees ignore

let sorted_keys tbl = Hashtbl.fold (fun k () acc -> k :: acc) tbl [] |> List.sort Int.compare (* lint-ok *)

let sorted_keys_desc tbl =
  Hashtbl.fold (fun k () acc -> k :: acc) tbl [] (* lint-ok: sorted below *)
  |> List.sort (fun a b -> Int.compare b a)

let dirty_container_chunks t = sorted_keys t.dirty_containers
let dirty_container_chunks_desc t = sorted_keys_desc t.dirty_containers

let container_entries ?spares t index =
  let base = index * Layout.entries_per_container_block in
  Intvec.extract ?spares t.container ~pos:base ~len:Layout.entries_per_container_block

let container_location t index = Intvec.get t.container_locations index

let set_container_location t index pvbn =
  let old = Intvec.get t.container_locations index in
  Intvec.set t.container_locations index pvbn;
  old

let clear_dirty_containers t =
  Hashtbl.clear t.dirty_containers;
  t.last_dirty_container <- -1
let dirty_inode_chunks t = sorted_keys t.dirty_inodes
let dirty_inode_chunks_desc t = sorted_keys_desc t.dirty_inodes

let inode_chunk t index =
  let base = index * Layout.inodes_per_block in
  let recs = ref [] in
  for fid = base + Layout.inodes_per_block - 1 downto base do
    match file t fid with Some f -> recs := File.inode_rec f :: !recs | None -> ()
  done;
  !recs

let inode_location t index = Intvec.get t.inode_locations index

let set_inode_location t index pvbn =
  let old = Intvec.get t.inode_locations index in
  Intvec.set t.inode_locations index pvbn;
  old

let clear_dirty_inode_chunks t = Hashtbl.clear t.dirty_inodes

let locations_array vec =
  let acc = ref [] in
  Intvec.iteri_set vec (fun idx pvbn -> acc := (idx, pvbn) :: !acc);
  Array.of_list (List.rev !acc)

let to_vol_rec t =
  {
    Layout.vol_id = t.id;
    vvbn_space = t.vvbn_space;
    inode_chunk_pvbns = locations_array t.inode_locations;
    container_pvbns = locations_array t.container_locations;
    volmap_pvbns =
      (let acc = ref [] in
       for i = Bitmap_file.nblocks t.vol_map - 1 downto 0 do
         let loc = Bitmap_file.location t.vol_map i in
         if loc >= 0 then acc := (i, loc) :: !acc
       done;
       Array.of_list !acc);
  }

let of_vol_rec (r : Layout.vol_rec) =
  let t = create ~id:r.Layout.vol_id ~vvbn_space:r.Layout.vvbn_space in
  Array.iter (fun (i, p) -> ignore (set_inode_location t i p)) r.Layout.inode_chunk_pvbns;
  Array.iter (fun (i, p) -> ignore (set_container_location t i p)) r.Layout.container_pvbns;
  Array.iter (fun (i, p) -> ignore (Bitmap_file.set_location t.vol_map i p)) r.Layout.volmap_pvbns;
  t

let load_container_chunk t ~index ~entries =
  let base = index * Layout.entries_per_container_block in
  for i = 0 to Packed.length entries - 1 do
    let pvbn = Packed.get entries i in
    if pvbn >= 0 then Intvec.set t.container (base + i) pvbn
  done

let load_inode_chunk t recs =
  List.iter
    (fun (r : Layout.inode_rec) ->
      let f = File.of_inode_rec ~vol:t.id r in
      Hashtbl.replace t.files r.Layout.file_id f;
      if r.Layout.file_id >= t.next_file_id then t.next_file_id <- r.Layout.file_id + 1)
    recs
