(* The exports pass: exported values that nothing outside their own
   compilation unit uses.

   An exported value is a [val] (or [external]) of an interface whose
   source path starts with the given prefix ("lib/" for the repository),
   nested modules included.  A reference is a [Texp_ident] in any
   implementation .cmt under the scanned build directories, exempt units
   and executables included.  The compiler stamps the value description
   it resolves an identifier to with the location of its declaration, so
   a reference from another unit carries the .mli location of the [val]
   it uses, however it was reached: a module alias, a local open, a
   re-exporting [include].  Matching on that location is exact where a
   name match would be fooled by shadowing.  A module passed whole to a
   functor ([Hashtbl.Make (Affinity)]) uses the values the functor's
   parameter asks for: the application's coercion gives, for each
   runtime component of the parameter's signature, the position of the
   argument's component it takes, and the argument's interface names the
   value at that position ([equal] and [hash], not [Affinity.ancestors]).
   Those are matched by unit and name.  When the argument passes with no
   coercion (its layout is the parameter's), all of its values count as
   used.

   A value with no reference outside its own unit is "unused"; one whose
   only outside references come from test/ is "test-only".  Both counts
   are ratcheted by a checked-in ceiling that may only go down. *)

type export = { x_name : string; (* Unit.Sub.value *) x_loc : Ir.loc }

type result = {
  unused : export list;
  test_only : (export * string list) list; (* with the test units using it *)
}

let read_cmts ~suffix dirs =
  List.fold_left (Load.find_files ~suffix) [] dirs
  |> List.sort_uniq compare
  |> List.filter_map (fun path ->
         match Cmt_format.read_cmt path with
         | exception _ -> None
         | cmt -> Option.map (fun src -> (src, cmt)) cmt.Cmt_format.cmt_sourcefile)

let key (l : Location.t) = (l.loc_start.pos_fname, l.loc_start.pos_cnum)

(* "lib/sim/sync.mli" and "lib/sim/sync.ml" are one unit. *)
let unit_of_source src = Filename.remove_extension src

(* Every value an interface declares, with its dotted name. *)
let rec sig_values prefix (sg : Typedtree.signature) =
  List.concat_map
    (fun (item : Typedtree.signature_item) ->
      match item.sig_desc with
      | Tsig_value vd -> [ (prefix ^ vd.val_name.txt, vd.val_val.val_loc) ]
      | Tsig_module { md_name = { txt = Some m; _ }; md_type = { mty_desc = Tmty_signature s; _ }; _ }
        ->
          sig_values (prefix ^ m ^ ".") s
      | _ -> [])
    sg.sig_items

(* A signature's runtime components (Includemod's: what a module of that
   signature holds at run time), in layout order: a value's name, or
   [None] for a module, class or extension constructor. *)
let runtime_values (sg : Types.signature) =
  List.filter_map
    (function
      | Types.Sig_value (_, { val_kind = Val_prim _; _ }, _)
      | Sig_type _ | Sig_modtype _ | Sig_class_type _
      | Sig_module (_, Mp_absent, _, _, _) ->
          None
      | Sig_value (id, _, _) -> Some (Some (Ident.name id))
      | Sig_typext _ | Sig_module (_, Mp_present, _, _, _) | Sig_class _ -> Some None)
    sg
  |> Array.of_list

let analyze ~prefix dirs =
  (* Unit -> its interface's runtime components, to name what a functor
     application takes from an argument by position. *)
  let layouts = Hashtbl.create 64 in
  let exports =
    read_cmts ~suffix:".cmti" dirs
    |> List.concat_map (fun (src, cmt) ->
           match cmt.Cmt_format.cmt_annots with
           | Cmt_format.Interface sg when String.starts_with ~prefix src ->
               let unit_ = Collect.norm_part cmt.Cmt_format.cmt_modname in
               Hashtbl.replace layouts unit_ (runtime_values sg.sig_type);
               List.map
                 (fun (name, loc) -> (key loc, { x_name = unit_ ^ "." ^ name; x_loc = Ir.loc_of loc }))
                 (sig_values "" sg)
           | _ -> [])
    |> List.sort (fun (_, a) (_, b) -> compare (a.x_loc.file, a.x_loc.line) (b.x_loc.file, b.x_loc.line))
  in
  (* A declaration, a functor argument's value by name, or a whole
     functor argument -> the units referencing it. *)
  let users = Hashtbl.create 1024 in
  let use here k =
    let seen = Option.value ~default:[] (Hashtbl.find_opt users k) in
    if not (List.mem here seen) then Hashtbl.replace users k (here :: seen)
  in
  List.iter
    (fun (src, cmt) ->
      match cmt.Cmt_format.cmt_annots with
      | Cmt_format.Implementation str ->
          let here = unit_of_source src in
          let expr it (e : Typedtree.expression) =
            (match e.exp_desc with Texp_ident (_, _, vd) -> use here (`Decl (key vd.val_loc)) | _ -> ());
            Tast_iterator.default_iterator.expr it e
          in
          let module_expr it (me : Typedtree.module_expr) =
            (match me.mod_desc with
            | Tmod_apply
                (_, { mod_desc = Tmod_constraint ({ mod_desc = Tmod_ident (p, _); _ }, _, _, _); _ }, c)
              -> (
                let m = List.hd (List.rev (Collect.path_parts p)) in
                let value_at pos =
                  match Hashtbl.find_opt layouts m with
                  | Some a when pos < Array.length a -> a.(pos)
                  | _ -> None
                in
                match c with
                | Typedtree.Tcoerce_structure (taken, _) ->
                    List.iter
                      (fun (pos, _) ->
                        match value_at pos with
                        | Some v -> use here (`Named (m ^ "." ^ v))
                        | None -> use here (`Whole m))
                      taken
                | _ -> use here (`Whole m))
            | _ -> ());
            Tast_iterator.default_iterator.module_expr it me
          in
          let it = { Tast_iterator.default_iterator with expr; module_expr } in
          it.structure it str
      | _ -> ())
    (read_cmts ~suffix:".cmt" dirs);
  let outside_users (k, x) =
    let of_key key = Option.value ~default:[] (Hashtbl.find_opt users key) in
    let unit_ = List.hd (String.split_on_char '.' x.x_name) in
    of_key (`Decl k) @ of_key (`Named x.x_name) @ of_key (`Whole unit_)
    |> List.filter (( <> ) (unit_of_source x.x_loc.file))
    |> List.sort_uniq compare
  in
  let classified = List.map (fun e -> (snd e, outside_users e)) exports in
  {
    unused = List.filter_map (function x, [] -> Some x | _ -> None) classified;
    test_only =
      List.filter
        (fun (_, us) -> us <> [] && List.for_all (String.starts_with ~prefix:"test/") us)
        classified;
  }

let print_text r =
  let pp (x : export) = Printf.sprintf "  %s:%d: %s" x.x_loc.file x.x_loc.line x.x_name in
  Printf.printf "== exports: %d unused ==\n" (List.length r.unused);
  List.iter (fun x -> print_endline (pp x)) r.unused;
  Printf.printf "== exports: %d test-only ==\n" (List.length r.test_only);
  List.iter
    (fun (x, us) ->
      Printf.printf "%s (%s)\n" (pp x) (String.concat ", " (List.map Filename.basename us)))
    r.test_only

(* The ceiling file: one "unused N" and one "test-only N" line. *)
let read_ceiling path =
  let kv =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun l ->
           match String.split_on_char ' ' (String.trim l) with
           | [ k; n ] -> Some (k, int_of_string n)
           | _ -> None)
  in
  let get k = Option.value ~default:0 (List.assoc_opt k kv) in
  (get "unused", get "test-only")

(* Whether the counts stay within [(max_unused, max_test_only)]; prints a
   verdict per group. *)
let within_ceiling r (max_unused, max_test_only) =
  let check what n ceiling =
    if n > ceiling then (
      Printf.printf "exports: %d %s exceed the ceiling of %d; delete the value or use it\n" n what
        ceiling;
      false)
    else (
      if n < ceiling then
        Printf.printf "note: %d %s, below the ceiling of %d; lower the ceiling\n" n what ceiling;
      true)
  in
  let a = check "unused" (List.length r.unused) max_unused in
  let b = check "test-only" (List.length r.test_only) max_test_only in
  a && b
