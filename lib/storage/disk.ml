(* Slots are stored unboxed: [images] is created at the first write, with
   every slot holding that write's payload, and a presence bit says
   whether a slot's image is real.  An absent slot is pointed back at
   [fill] so a discarded image is not kept alive by its old slot. *)
type 'b store = Unwritten | Images of { images : 'b array; fill : 'b }

type 'b t = {
  geometry : Geometry.t;
  mutable store : 'b store;
  present : Bytes.t; (* one bit per VBN *)
  mutable writes : int;
  mutable fault : Fault.t option;
}

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

let write t vbn payload =
  check t vbn;
  (match t.store with
  | Images s -> s.images.(vbn) <- payload
  | Unwritten ->
      t.store <-
        Images { images = Array.make (Geometry.total_data_blocks t.geometry) payload; fill = payload });
  set_present t vbn true;
  (* A write remaps the sector, clearing any latent media error. *)
  (match t.fault with Some f when Fault.media_error f vbn -> Fault.clear_media_error f vbn | _ -> ());
  t.writes <- t.writes + 1

let read t vbn =
  check t vbn;
  match t.store with
  | Images s when mem t vbn -> Some s.images.(vbn)
  | _ -> None

let discard t vbn =
  check t vbn;
  match t.store with
  | Images s when mem t vbn ->
      let dropped = s.images.(vbn) in
      set_present t vbn false;
      s.images.(vbn) <- s.fill;
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
