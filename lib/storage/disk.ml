type 'b t = {
  geometry : Geometry.t;
  blocks : 'b option array;
  mutable writes : int;
  mutable fault : Fault.t option;
}

let create geometry =
  { geometry; blocks = Array.make (Geometry.total_data_blocks geometry) None; writes = 0;
    fault = None }

let geometry t = t.geometry
let set_fault t f = t.fault <- Some f
let fault t = t.fault

let check t vbn =
  if not (Geometry.vbn_valid t.geometry vbn) then
    invalid_arg (Printf.sprintf "Disk: vbn %d out of range" vbn)

let write t vbn payload =
  check t vbn;
  t.blocks.(vbn) <- Some payload;
  (* A write remaps the sector, clearing any latent media error. *)
  (match t.fault with Some f when Fault.media_error f vbn -> Fault.clear_media_error f vbn | _ -> ());
  t.writes <- t.writes + 1

let discard t vbn =
  check t vbn;
  t.blocks.(vbn) <- None

let read t vbn =
  check t vbn;
  t.blocks.(vbn)

let read_checked t vbn =
  check t vbn;
  match t.fault with
  | Some f when Fault.media_error f vbn -> `Media_error
  | _ -> ( match t.blocks.(vbn) with Some p -> `Ok p | None -> `Absent)

let read_exn t vbn =
  match read t vbn with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Disk.read_exn: vbn %d never written" vbn)

let writes_total t = t.writes
