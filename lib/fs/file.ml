open Wafl_util

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* The dirty buffers of every file that shares [words]: buffer (file,
   fbn, generation) is bound to its content under [key] below.  [files]
   numbers the files made over it. *)
type buffers = { words : Word_table.t; mutable files : int }

let buffers () = { words = Word_table.create (); files = 0 }
let buffered b = Word_table.length b.words

(* A key is the file's number, then 32 bits of fbn, then the generation
   bit: 62 bits, so every key is a non-negative int. *)
let fbn_bits = 32
let max_files = 1 lsl (62 - fbn_bits - 1)

type t = {
  vol : int;
  id : int;
  mutable nfbns : int;
  bmap : Intvec.t; (* fbn -> vvbn *)
  bmap_locations : Intvec.t; (* bmap block idx -> pvbn *)
  buffers : buffers;
  base : int; (* this file's number, shifted into key position *)
  (* Generation of the front buffers; the CP snapshot's are the other. *)
  mutable gen : int;
  (* Presence bitmaps, bit fbn set when the buffer is held: 8 bytes per
     64 fbns up to the largest one written. *)
  mutable front : Bytes.t;
  mutable cp : Bytes.t;
  mutable front_n : int;
  mutable cp_n : int;
  mutable cp_outstanding : bool;
  dirty_bmap : Dense_set.t;
}

let create_in buffers ~vol ~id =
  if buffers.files >= max_files then invalid_arg "File.create_in: dirty-buffer table full";
  let base = buffers.files lsl (fbn_bits + 1) in
  buffers.files <- buffers.files + 1;
  {
    vol;
    id;
    nfbns = 0;
    bmap = Intvec.create ~default:(-1) ();
    bmap_locations = Intvec.create ~default:(-1) ();
    buffers;
    base;
    gen = 0;
    front = Bytes.empty;
    cp = Bytes.empty;
    front_n = 0;
    cp_n = 0;
    cp_outstanding = false;
    dirty_bmap = Dense_set.create ();
  }

let create ~vol ~id = create_in (buffers ()) ~vol ~id
let id t = t.id
let nfbns t = t.nfbns
let key t fbn gen = t.base lor (fbn lsl 1) lor gen

let has bits fbn =
  let off = 8 * (fbn lsr 6) in
  off < Bytes.length bits && Int64.logand (get64 bits off) (Int64.shift_left 1L (fbn land 63)) <> 0L

(* Set bit [fbn] of the front bitmap, growing it; false if it was set. *)
let mark_front t fbn =
  let off = 8 * (fbn lsr 6) in
  if off >= Bytes.length t.front then begin
    let bits = Bytes.make (max (off + 8) (2 * Bytes.length t.front)) '\000' in
    Bytes.blit t.front 0 bits 0 (Bytes.length t.front);
    t.front <- bits
  end;
  let w = get64 t.front off and bit = Int64.shift_left 1L (fbn land 63) in
  if Int64.logand w bit <> 0L then false
  else begin
    set64 t.front off (Int64.logor w bit);
    true
  end

let write t ~fbn ~content =
  if fbn < 0 || fbn lsr fbn_bits <> 0 then invalid_arg "File.write: fbn out of range";
  Word_table.replace t.buffers.words (key t fbn t.gen) content;
  if mark_front t fbn then t.front_n <- t.front_n + 1;
  if fbn >= t.nfbns then t.nfbns <- fbn + 1

let read_cached t ~fbn =
  if fbn < 0 then None
  else if has t.front fbn then Some (Word_table.find t.buffers.words (key t fbn t.gen))
  else if has t.cp fbn then Some (Word_table.find t.buffers.words (key t fbn (1 - t.gen)))
  else None

let dirty_front t = t.front_n
let vvbn_of_fbn t fbn = Intvec.get t.bmap fbn

let set_vvbn t ~fbn ~vvbn =
  let old = Intvec.get t.bmap fbn in
  Intvec.set t.bmap fbn vvbn;
  Dense_set.add t.dirty_bmap (fbn / Layout.entries_per_bmap_block);
  old

(* The front buffers become the snapshot by a generation flip: their
   keys stay put, and later writes bind the other generation's. *)
let cp_snapshot t =
  if t.cp_outstanding then invalid_arg "File.cp_snapshot: previous CP not finished";
  let bits = t.front in
  t.front <- t.cp;
  (* The old CP bitmap is empty after cp_done; reuse it as the new front. *)
  t.cp <- bits;
  t.cp_n <- t.front_n;
  t.front_n <- 0;
  t.gen <- 1 - t.gen;
  t.cp_outstanding <- true

let cp_buffer_count t = t.cp_n

let cp_fbns_into t dst ~pos =
  let i = ref pos in
  for w = 0 to (Bytes.length t.cp / 8) - 1 do
    let x = ref (get64 t.cp (8 * w)) in
    while !x <> 0L do
      dst.(!i) <- (64 * w) + Bitops.ctz !x;
      incr i;
      x := Int64.logand !x (Int64.sub !x 1L)
    done
  done

let cp_content t fbn =
  if fbn >= 0 && has t.cp fbn then Word_table.find t.buffers.words (key t fbn (1 - t.gen))
  else raise Not_found

(* Unbind the snapshot's buffers by walking its bitmap, clearing each
   word as it goes; the bitmap keeps its size for the next snapshot. *)
let cp_done t =
  let gen = 1 - t.gen in
  for w = 0 to (Bytes.length t.cp / 8) - 1 do
    let x = ref (get64 t.cp (8 * w)) in
    while !x <> 0L do
      Word_table.remove t.buffers.words (key t ((64 * w) + Bitops.ctz !x) gen);
      x := Int64.logand !x (Int64.sub !x 1L)
    done;
    set64 t.cp (8 * w) 0L
  done;
  t.cp_n <- 0;
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

let of_inode_rec ?(buffers = buffers ()) ~vol (rec_ : Layout.inode_rec) =
  let t = create_in buffers ~vol ~id:rec_.Layout.file_id in
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
