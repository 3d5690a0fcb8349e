type 'b codec = { key : 'b -> int; word : 'b -> int64; unpack : int -> int64 -> 'b }

(* Boxed images sit directly (no option box) in the slots of fixed pages
   of [page_slots] VBNs, and a presence bit says whether a slot's image
   is real.  A page is created at the first boxed write into it, with
   every slot pointing at [fill] (the store's first boxed payload); a
   page never written is the shared empty array.  A slot that holds no
   boxed image is pointed back at [fill] so a discarded or overwritten
   image is not kept alive by its old slot. *)
type 'b store = Unwritten | Images of { pages : 'b array array; fill : 'b }

type 'b t = {
  geometry : Geometry.t;
  codec : 'b codec option;
  mutable store : 'b store;
  (* Compact pages, with a codec: two 64-bit words a slot (the key, then
     the word), made at the page's first compact write with every key -1;
     [Bytes.empty] before that.  [[||]] without a codec. *)
  words : Bytes.t array;
  present : Bytes.t; (* one bit per VBN *)
  mutable writes : int;
  mutable fault : Fault.t option;
}

(* 4096 slots: 32 KiB of boxed slot words (64 KiB of compact words) per
   page, two Allocation Areas of one drive on the paper geometry. *)
let page_bits = 12
let page_slots = 1 lsl page_bits
let page_mask = page_slots - 1

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let page_count geometry = (Geometry.total_data_blocks geometry + page_mask) lsr page_bits

let create ?codec geometry =
  {
    geometry;
    codec;
    store = Unwritten;
    words =
      (match codec with Some _ -> Array.make (page_count geometry) Bytes.empty | None -> [||]);
    present = Bytes.make ((Geometry.total_data_blocks geometry + 7) / 8) '\000';
    writes = 0;
    fault = None;
  }

let geometry t = t.geometry
let set_fault t f = t.fault <- Some f
let fault t = t.fault

let check t vbn =
  if not (Geometry.vbn_valid t.geometry vbn) then
    invalid_arg (Printf.sprintf "Disk: vbn %d out of range" vbn)

let mem t vbn = Char.code (Bytes.unsafe_get t.present (vbn lsr 3)) land (1 lsl (vbn land 7)) <> 0

let set_present t vbn on =
  let byte = Char.code (Bytes.unsafe_get t.present (vbn lsr 3)) in
  let bit = 1 lsl (vbn land 7) in
  Bytes.unsafe_set t.present (vbn lsr 3)
    (Char.unsafe_chr (if on then byte lor bit else byte land lnot bit))

(* The last page is short when the aggregate is not a whole number of
   pages. *)
let page_len t p = min page_slots (Geometry.total_data_blocks t.geometry - (p lsl page_bits))

(* The key stored at a present slot of a store with a codec: >= 0 for a
   compact image, -1 for a boxed one. *)
let key_at t vbn =
  let w = Array.unsafe_get t.words (vbn lsr page_bits) in
  if Bytes.length w = 0 then -1 else Int64.to_int (get64u w (16 * (vbn land page_mask)))

let store_boxed t vbn payload =
  let p = vbn lsr page_bits in
  match t.store with
  | Images s ->
      if Array.length s.pages.(p) = 0 then s.pages.(p) <- Array.make (page_len t p) s.fill;
      s.pages.(p).(vbn land page_mask) <- payload
  | Unwritten ->
      let pages = Array.make (page_count t.geometry) [||] in
      pages.(p) <- Array.make (page_len t p) payload;
      t.store <- Images { pages; fill = payload }

let write_compact t vbn key word =
  let p = vbn lsr page_bits in
  (* A boxed image this slot held is dropped, not kept alive. *)
  (if mem t vbn && key_at t vbn < 0 then
     match t.store with
     | Images s -> s.pages.(p).(vbn land page_mask) <- s.fill
     | Unwritten -> ());
  let w =
    let w = Array.unsafe_get t.words p in
    if Bytes.length w <> 0 then w
    else begin
      let w = Bytes.make (16 * page_len t p) '\255' in
      t.words.(p) <- w;
      w
    end
  in
  let off = 16 * (vbn land page_mask) in
  set64u w off (Int64.of_int key);
  set64u w (off + 8) word

let write t vbn payload =
  check t vbn;
  (match t.codec with
  | None -> store_boxed t vbn payload
  | Some c ->
      let key = c.key payload in
      if key >= 0 then write_compact t vbn key (c.word payload)
      else begin
        store_boxed t vbn payload;
        let w = Array.unsafe_get t.words (vbn lsr page_bits) in
        if Bytes.length w <> 0 then set64u w (16 * (vbn land page_mask)) (-1L)
      end);
  set_present t vbn true;
  (* A write remaps the sector, clearing any latent media error. *)
  (match t.fault with Some f when Fault.media_error f vbn -> Fault.clear_media_error f vbn | _ -> ());
  t.writes <- t.writes + 1

let read_boxed t vbn =
  match t.store with
  | Images s -> Some s.pages.(vbn lsr page_bits).(vbn land page_mask)
  | Unwritten -> None

let read t vbn =
  check t vbn;
  if not (mem t vbn) then None
  else
    match t.codec with
    | None -> read_boxed t vbn
    | Some c ->
        let key = key_at t vbn in
        if key < 0 then read_boxed t vbn
        else
          let w = Array.unsafe_get t.words (vbn lsr page_bits) in
          Some (c.unpack key (get64u w ((16 * (vbn land page_mask)) + 8)))

let discard t vbn =
  check t vbn;
  if not (mem t vbn) then None
  else begin
    set_present t vbn false;
    match (t.codec, t.store) with
    | Some _, _ when key_at t vbn >= 0 -> None
    | _, Images s ->
        let page = s.pages.(vbn lsr page_bits) in
        let dropped = page.(vbn land page_mask) in
        page.(vbn land page_mask) <- s.fill;
        Some dropped
    | _, Unwritten -> None
  end

let read_checked t vbn =
  check t vbn;
  match t.fault with
  | Some f when Fault.media_error f vbn -> `Media_error
  | _ -> ( match read t vbn with Some p -> `Ok p | None -> `Absent)

let read_exn t vbn =
  match read t vbn with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Disk.read_exn: vbn %d never written" vbn)

let writes_total t = t.writes
