(* Slots are stored unboxed in fixed pages of [page_slots] VBNs, and a
   presence bit says whether a slot's image is real.  A page is created
   at the first write into it, with every slot pointing at [fill] (the
   store's first payload); a page never written is the shared empty
   array.  An absent slot is pointed back at [fill] so a discarded image
   is not kept alive by its old slot. *)
type 'b store = Unwritten | Images of { pages : 'b array array; fill : 'b }

type 'b t = {
  geometry : Geometry.t;
  mutable store : 'b store;
  present : Bytes.t; (* one bit per VBN *)
  mutable writes : int;
  mutable fault : Fault.t option;
}

(* 4096 slots: 32 KiB of slot words per page, two Allocation Areas of
   one drive on the paper geometry. *)
let page_bits = 12
let page_slots = 1 lsl page_bits
let page_mask = page_slots - 1

let create geometry =
  {
    geometry;
    store = Unwritten;
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
let new_page t p fill =
  Array.make (min page_slots (Geometry.total_data_blocks t.geometry - (p lsl page_bits))) fill

let write t vbn payload =
  check t vbn;
  let p = vbn lsr page_bits in
  (match t.store with
  | Images s ->
      if Array.length s.pages.(p) = 0 then s.pages.(p) <- new_page t p s.fill;
      s.pages.(p).(vbn land page_mask) <- payload
  | Unwritten ->
      let pages = Array.make ((Geometry.total_data_blocks t.geometry + page_mask) lsr page_bits) [||] in
      pages.(p) <- new_page t p payload;
      t.store <- Images { pages; fill = payload });
  set_present t vbn true;
  (* A write remaps the sector, clearing any latent media error. *)
  (match t.fault with Some f when Fault.media_error f vbn -> Fault.clear_media_error f vbn | _ -> ());
  t.writes <- t.writes + 1

let read t vbn =
  check t vbn;
  match t.store with
  | Images s when mem t vbn -> Some s.pages.(vbn lsr page_bits).(vbn land page_mask)
  | _ -> None

let discard t vbn =
  check t vbn;
  match t.store with
  | Images s when mem t vbn ->
      let page = s.pages.(vbn lsr page_bits) in
      let dropped = page.(vbn land page_mask) in
      set_present t vbn false;
      page.(vbn land page_mask) <- s.fill;
      Some dropped
  | _ -> None

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
