open Wafl_util

type t = {
  id : int;
  vvbn_space : int;
  mutable files : File.t option array; (* by file id; grows *)
  mutable next_file_id : int;
  (* dirty-inode lists: [dirty] is the front list, [cp] the snapshot *)
  mutable dirty : File.t list;
  dirty_set : Dense_set.t; (* ids of the files on [dirty] *)
  mutable cp : File.t list;
  (* container map *)
  container : Intvec.t;
  container_locations : Intvec.t;
  dirty_containers : Dense_set.t;
  (* volume activemap *)
  vol_map : Bitmap_file.t;
  recent_frees : Freed_set.t; (* vvbns frozen until the CP commits *)
  mutable last_dirty_container : int; (* last chunk marked; skips the set test *)
  (* inode file *)
  inode_locations : Intvec.t;
  dirty_inodes : Dense_set.t;
  mutable zombies : File.t list;
}

let create ~id ~vvbn_space =
  if vvbn_space <= 0 then invalid_arg "Volume.create: bad vvbn space";
  {
    id;
    vvbn_space;
    files = Array.make 64 None;
    next_file_id = 0;
    dirty = [];
    dirty_set = Dense_set.create ();
    cp = [];
    (* One entry per vvbn: the space is fixed, so the map never grows. *)
    container = Intvec.create ~initial_capacity:vvbn_space ~default:(-1) ();
    container_locations = Intvec.create ~default:(-1) ();
    dirty_containers = Dense_set.create ();
    vol_map = Bitmap_file.create ~bits:vvbn_space;
    recent_frees = Freed_set.create ~bits:vvbn_space;
    last_dirty_container = -1;
    inode_locations = Intvec.create ~default:(-1) ();
    dirty_inodes = Dense_set.create ();
    zombies = [];
  }

let id t = t.id
let vvbn_space t = t.vvbn_space

let fresh_file_id t =
  let id = t.next_file_id in
  t.next_file_id <- id + 1;
  id

let inode_chunk_of_file file_id = file_id / Layout.inodes_per_block
let mark_inode_dirty t file = Dense_set.add t.dirty_inodes (inode_chunk_of_file (File.id file))
let file t fid = if fid >= 0 && fid < Array.length t.files then t.files.(fid) else None

(* Bind (or, with [None], unbind) a file id, growing the table. *)
let set_file t fid f =
  if fid >= Array.length t.files then begin
    let files = Array.make (max (fid + 1) (2 * Array.length t.files)) None in
    Array.blit t.files 0 files 0 (Array.length t.files);
    t.files <- files
  end;
  t.files.(fid) <- f;
  if fid >= t.next_file_id then t.next_file_id <- fid + 1

let add_file t f =
  if File.id f < 0 then invalid_arg "Volume.add_file: negative id";
  if Option.is_some (file t (File.id f)) then invalid_arg "Volume.add_file: duplicate id";
  set_file t (File.id f) (Some f);
  mark_inode_dirty t f

let file_exn t fid =
  match file t fid with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Volume %d: no file %d" t.id fid)

(* Sorted by file id: recovery and fsck walk this list. *)
let files t =
  Array.fold_right (fun f acc -> match f with Some f -> f :: acc | None -> acc) t.files []

let file_count t = Array.fold_left (fun n f -> if Option.is_some f then n + 1 else n) 0 t.files

let mark_deleted t file = t.zombies <- file :: t.zombies

let take_zombies t =
  let z = List.rev t.zombies in
  t.zombies <- [];
  z

let remove_file t fid =
  if Option.is_none (file t fid) then invalid_arg "Volume.remove_file: no such file";
  set_file t fid None;
  Dense_set.add t.dirty_inodes (inode_chunk_of_file fid)

let note_dirty t file =
  if not (Dense_set.mem t.dirty_set (File.id file)) then begin
    Dense_set.add t.dirty_set (File.id file);
    t.dirty <- file :: t.dirty
  end

let dirty_inode_count t = List.length t.dirty

let cp_snapshot t =
  let snapshot = List.rev t.dirty in
  t.dirty <- [];
  Dense_set.clear t.dirty_set;
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

let container_capacity t = Intvec.capacity t.container

let map_vvbn t ~vvbn ~pvbn =
  check_vvbn t vvbn;
  let old = Intvec.get t.container vvbn in
  Intvec.set t.container vvbn pvbn;
  let chunk = vvbn / Layout.entries_per_container_block in
  if chunk <> t.last_dirty_container then begin
    Dense_set.add t.dirty_containers chunk;
    t.last_dirty_container <- chunk
  end;
  old

let vol_map t = t.vol_map
let note_freed_vvbn t vvbn = Freed_set.add t.recent_frees vvbn
let vvbn_reusable t vvbn = not (Freed_set.mem t.recent_frees vvbn)
let clear_recent_frees t = Freed_set.release t.recent_frees ignore

let dirty_container_chunks t = Dense_set.elements t.dirty_containers
let dirty_container_chunks_desc t = Dense_set.elements_desc t.dirty_containers

let container_entries ?spares t index =
  let base = index * Layout.entries_per_container_block in
  Intvec.extract ?spares t.container ~pos:base ~len:Layout.entries_per_container_block

let container_location t index = Intvec.get t.container_locations index

let set_container_location t index pvbn =
  let old = Intvec.get t.container_locations index in
  Intvec.set t.container_locations index pvbn;
  old

let clear_dirty_containers t =
  Dense_set.clear t.dirty_containers;
  t.last_dirty_container <- -1

let dirty_inode_chunks t = Dense_set.elements t.dirty_inodes
let dirty_inode_chunks_desc t = Dense_set.elements_desc t.dirty_inodes

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

let clear_dirty_inode_chunks t = Dense_set.clear t.dirty_inodes

let to_vol_rec t =
  {
    Layout.vol_id = t.id;
    vvbn_space = t.vvbn_space;
    inode_chunk_pvbns = Intvec.bindings t.inode_locations;
    container_pvbns = Intvec.bindings t.container_locations;
    volmap_pvbns = Bitmap_file.locations t.vol_map;
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

let load_inode_chunk ~buffers t recs =
  List.iter
    (fun (r : Layout.inode_rec) ->
      set_file t r.Layout.file_id (Some (File.of_inode_rec ~buffers ~vol:t.id r)))
    recs
