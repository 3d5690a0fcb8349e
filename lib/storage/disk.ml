open Wafl_util

type 'b codec = {
  key : 'b -> int;
  word : 'b -> int64;
  unpack : int -> int64 -> 'b;
  vacant : 'b option;
}

(* Every slot is two 64-bit words in its page: a key, then a word.  Key
   -1 is an absent slot, [boxed_key] a boxed image whose word is its
   index in [images], and any key >= 0 a compact image whose word is its
   content.  A page is a slab made at its first write with every key -1
   ([Slab.empty] before that); its first word counts its present slots,
   and the discard that empties it hands it back to [Slab.empty].
   [images] is dense: freed indices are stacked on [free] for reuse, and
   a vacated entry points back at [fill], so no dropped image is kept
   alive.  [fill] is the codec's vacant image, which no user wrote; a
   store without one falls back to its first boxed image. *)
type 'b t = {
  geometry : Geometry.t;
  codec : 'b codec;
  pages : Slab.t array;
  mutable images : 'b array;
  mutable fill : 'b option;
  mutable free : int array;
  mutable n_free : int;
  mutable writes : int;
  mutable fault : Fault.t option;
}

(* 4096 slots (64 KiB of words) per page: two Allocation Areas of one
   drive on the paper geometry. *)
let page_bits = 12
let page_slots = 1 lsl page_bits
let page_mask = page_slots - 1
let absent_key = -1
let boxed_key = -2

let never_packs =
  {
    key = (fun _ -> boxed_key);
    word = (fun _ -> 0L);
    unpack = (fun _ _ -> assert false);
    vacant = None;
  }

let create ?(codec = never_packs) geometry =
  let blocks = Geometry.total_data_blocks geometry in
  {
    geometry;
    codec;
    pages = Array.make ((blocks + page_mask) lsr page_bits) Slab.empty;
    images = [||];
    fill = codec.vacant;
    free = [||];
    n_free = 0;
    writes = 0;
    fault = None;
  }

let geometry t = t.geometry
let set_fault t f = t.fault <- Some f
let fault t = t.fault

let check t vbn =
  if not (Geometry.vbn_valid t.geometry vbn) then
    invalid_arg (Printf.sprintf "Disk: vbn %d out of range" vbn)

let page t vbn = Array.unsafe_get t.pages (vbn lsr page_bits)
let off vbn = 8 + (16 * (vbn land page_mask))
let present pg = Int64.to_int (Slab.unsafe_get64 pg 0)
let set_present pg n = Slab.unsafe_set64 pg 0 (Int64.of_int n)

let key_at t vbn =
  let p = page t vbn in
  if Slab.length p = 0 then absent_key else Int64.to_int (Slab.unsafe_get64 p (off vbn))

let word_at t vbn = Slab.unsafe_get64 (page t vbn) (off vbn + 8)

(* Store a slot's two words, making its page (every slot absent) at the
   page's first write and counting a slot that was absent. *)
let[@inline] set_slot t vbn key word =
  let p = vbn lsr page_bits in
  let pg =
    let pg = Array.unsafe_get t.pages p in
    if Slab.length pg <> 0 then pg
    else begin
      (* The last page is short when the aggregate is not a whole number
         of pages. *)
      let len = min page_slots (Geometry.total_data_blocks t.geometry - (p lsl page_bits)) in
      let pg = Slab.make (8 + (16 * len)) '\255' in
      set_present pg 0;
      t.pages.(p) <- pg;
      pg
    end
  in
  let o = off vbn in
  if Int64.to_int (Slab.unsafe_get64 pg o) = absent_key then set_present pg (present pg + 1);
  Slab.unsafe_set64 pg o (Int64.of_int key);
  Slab.unsafe_set64 pg (o + 8) word

(* A boxed image's index, popped from the free stack.  When none is
   free, [images] doubles, new entries pointing at [fill], and the stack
   takes the new indices, lowest on top. *)
let take_index t payload =
  if t.n_free = 0 then begin
    let n = Array.length t.images in
    let fill = match t.fill with Some f -> f | None -> payload in
    let cap = max 16 (2 * n) in
    t.images <- Array.append t.images (Array.make (cap - n) fill);
    t.fill <- Some fill;
    t.free <- Array.init cap (fun i -> cap - 1 - i);
    t.n_free <- cap - n
  end;
  t.n_free <- t.n_free - 1;
  t.free.(t.n_free)

(* Vacate a boxed image's entry, returning the image it held. *)
let release t i =
  let dropped = t.images.(i) in
  (match t.fill with Some f -> t.images.(i) <- f | None -> ());
  t.free.(t.n_free) <- i;
  t.n_free <- t.n_free + 1;
  dropped

(* A write remaps the sector, clearing any latent media error. *)
let[@inline] note_write t vbn =
  (match t.fault with Some f when Fault.media_error f vbn -> Fault.clear_media_error f vbn | _ -> ());
  t.writes <- t.writes + 1

let[@inline] write_compact t vbn ~key ~word =
  check t vbn;
  if key < 0 then invalid_arg "Disk.write_compact: negative key";
  if key_at t vbn = boxed_key then ignore (release t (Int64.to_int (word_at t vbn)));
  set_slot t vbn key word;
  note_write t vbn

let write t vbn payload =
  let key = t.codec.key payload in
  if key >= 0 then write_compact t vbn ~key ~word:(t.codec.word payload)
  else begin
    check t vbn;
    if key_at t vbn = boxed_key then t.images.(Int64.to_int (word_at t vbn)) <- payload
    else begin
      let i = take_index t payload in
      t.images.(i) <- payload;
      set_slot t vbn boxed_key (Int64.of_int i)
    end;
    note_write t vbn
  end

let read t vbn =
  check t vbn;
  let key = key_at t vbn in
  if key = absent_key then None
  else if key = boxed_key then Some t.images.(Int64.to_int (word_at t vbn))
  else Some (t.codec.unpack key (word_at t vbn))

let discard t vbn =
  check t vbn;
  let key = key_at t vbn in
  if key = absent_key then None
  else begin
    let pg = page t vbn in
    let word = word_at t vbn in
    Slab.unsafe_set64 pg (off vbn) (Int64.of_int absent_key);
    let n = present pg - 1 in
    if n = 0 then t.pages.(vbn lsr page_bits) <- Slab.empty else set_present pg n;
    if key = boxed_key then Some (release t (Int64.to_int word)) else None
  end

let[@inline] compact_key t vbn =
  check t vbn;
  let key = key_at t vbn in
  if key >= 0 then key else -1

let[@inline] compact_word t vbn = word_at t vbn
let codec t = t.codec

let read_exn t vbn =
  match read t vbn with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Disk.read_exn: vbn %d never written" vbn)

let writes_total t = t.writes

let slab_bytes t = Array.fold_left (fun n pg -> n + Slab.length pg) 0 t.pages
