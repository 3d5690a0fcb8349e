open Wafl_util

type t = {
  vol : int;
  id : int;
  mutable nfbns : int;
  bmap : Intvec.t; (* fbn -> vvbn *)
  bmap_locations : Intvec.t; (* bmap block idx -> pvbn *)
  mutable front : int64 Int_table.t; (* fbn -> content *)
  mutable cp : int64 Int_table.t;
  mutable cp_outstanding : bool;
  dirty_bmap : Dense_set.t;
}

let create ~vol ~id =
  {
    vol;
    id;
    nfbns = 0;
    bmap = Intvec.create ~default:(-1) ();
    bmap_locations = Intvec.create ~default:(-1) ();
    front = Int_table.create ();
    cp = Int_table.create ();
    cp_outstanding = false;
    dirty_bmap = Dense_set.create ();
  }

let vol t = t.vol
let id t = t.id
let nfbns t = t.nfbns

let write t ~fbn ~content =
  if fbn < 0 then invalid_arg "File.write: negative fbn";
  Int_table.replace t.front fbn content;
  if fbn >= t.nfbns then t.nfbns <- fbn + 1

let read_cached t ~fbn =
  match Int_table.find_opt t.front fbn with
  | Some c -> Some c
  | None -> Int_table.find_opt t.cp fbn

let dirty_front t = Int_table.length t.front
let vvbn_of_fbn t fbn = Intvec.get t.bmap fbn

let set_vvbn t ~fbn ~vvbn =
  let old = Intvec.get t.bmap fbn in
  Intvec.set t.bmap fbn vvbn;
  Dense_set.add t.dirty_bmap (fbn / Layout.entries_per_bmap_block);
  old

let cp_snapshot t =
  if t.cp_outstanding then invalid_arg "File.cp_snapshot: previous CP not finished";
  let snapshot = t.front in
  t.front <- t.cp;
  (* The old CP table is empty after cp_done; reuse it as the new front. *)
  t.cp <- snapshot;
  t.cp_outstanding <- true

let cp_buffer_count t = Int_table.length t.cp
let cp_fbns_into t dst ~pos = Int_table.keys_into t.cp dst ~pos
let cp_content t fbn = Int_table.find t.cp fbn

let cp_done t =
  (* [clear], not a reset: keep the bucket array at its high-water size
     so per-CP reuse doesn't regrow it from scratch every cycle. *)
  Int_table.clear t.cp;
  t.cp_outstanding <- false

let dirty_bmap_blocks t = Dense_set.elements t.dirty_bmap
let dirty_bmap_blocks_desc t = Dense_set.elements_desc t.dirty_bmap

let bmap_entries ?spares t index =
  let base = index * Layout.entries_per_bmap_block in
  Intvec.extract ?spares t.bmap ~pos:base ~len:Layout.entries_per_bmap_block

let bmap_location t index = Intvec.get t.bmap_locations index

let set_bmap_location t index pvbn =
  let old = Intvec.get t.bmap_locations index in
  Intvec.set t.bmap_locations index pvbn;
  old

let clear_dirty_bmap t = Dense_set.clear t.dirty_bmap

let inode_rec t =
  { Layout.file_id = t.id; nfbns = t.nfbns; bmap_pvbns = Intvec.bindings t.bmap_locations }

let of_inode_rec ~vol (rec_ : Layout.inode_rec) =
  let t = create ~vol ~id:rec_.Layout.file_id in
  t.nfbns <- rec_.Layout.nfbns;
  Array.iter
    (fun (idx, pvbn) -> ignore (set_bmap_location t idx pvbn))
    rec_.Layout.bmap_pvbns;
  t

let load_bmap_block t ~index ~entries =
  let base = index * Layout.entries_per_bmap_block in
  for i = 0 to Packed.length entries - 1 do
    let vvbn = Packed.get entries i in
    if vvbn >= 0 then Intvec.set t.bmap (base + i) vvbn
  done
