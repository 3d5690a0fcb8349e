(* .cmt discovery and loading.  Dune's dev profile emits binary
   annotations for every module; we recurse through the given build
   directories, read each implementation .cmt, normalize the unit name
   (dune wraps library modules as Wafl_x__Module) and hand the typedtree
   to the collector.  Interface-only artifacts (.cmti) and units without
   a full implementation annotation are skipped. *)

let rec find_files ~suffix acc dir =
  match Sys.is_directory dir with
  | exception Sys_error _ -> acc
  | false -> if Filename.check_suffix dir suffix then dir :: acc else acc
  | true ->
      Array.fold_left
        (fun acc entry -> find_files ~suffix acc (Filename.concat dir entry))
        acc (Sys.readdir dir)

(* "Wafl_qos__Token_bucket" -> "Token_bucket"; "Dune__exe__Main" -> "Main" *)
let norm_unit = Collect.norm_part

type loaded = { unit_ : string; structure : Typedtree.structure }

let read_one path =
  match Cmt_format.read_cmt path with
  | exception _ -> None
  | cmt -> (
      match cmt.Cmt_format.cmt_annots with
      | Cmt_format.Implementation str ->
          Some { unit_ = norm_unit cmt.Cmt_format.cmt_modname; structure = str }
      | _ -> None)

(* Load every .cmt under [dirs] and collect the non-exempt units into a
   program.  Exempt units (the engine substrate) still register in the
   unit table so call paths into them resolve, but their bodies are not
   analyzed.  Returns the program and the list of units collected. *)
let load_program dirs =
  let paths = List.fold_left (find_files ~suffix:".cmt") [] dirs in
  let loaded = List.filter_map read_one (List.sort compare paths) in
  let prog = Ir.create_program () in
  let known_units = Hashtbl.create 64 in
  List.iter
    (fun l ->
      Hashtbl.replace known_units l.unit_ ();
      Hashtbl.replace prog.Ir.units l.unit_ l.unit_)
    loaded;
  (* Exempt substrate modules may live outside the analyzed dirs in
     partial runs (fixtures): their names must still resolve. *)
  List.iter (fun u -> Hashtbl.replace known_units u ()) Config.exempt_units;
  List.iter (fun u -> Hashtbl.replace known_units u ()) [ "Scheduler"; "Isolation" ];
  let analyzed = ref [] in
  List.iter
    (fun l ->
      if not (List.mem l.unit_ Config.exempt_units) then (
        analyzed := l.unit_ :: !analyzed;
        Collect.collect_unit prog ~known_units ~unit_:l.unit_ l.structure))
    loaded;
  Collect.drain_pending_roots prog;
  (prog, List.rev !analyzed)
