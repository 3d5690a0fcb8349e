(* wafl_analyzer: whole-program static analysis over the typedtrees
   (.cmt files) dune produces.

   Usage: wafl_analyzer [--json] [--verbose] BUILD_DIR...
          wafl_analyzer --exports [--verbose] [--prefix P] [--ceiling FILE] BUILD_DIR...

   Passes (see tools/wafl_analyzer/passes.ml and DESIGN.md §4.12):
     probe-coverage  shared mutable state reachable from several
                     scheduler roots in units with no Engine.probe gate
     blocking        blocking primitives reachable while a host Mutex
                     is held
     lock-order      cycles in the static lock-acquisition graph
     ownership       probe_locked domains with no registered affinity
                     owner in the Isolation registry
     domain-safety   module-level mutable state written without a mutex
                     from closures executed on pool worker domains

   Exit status 1 when any finding is reported.

   With --exports, the one pass run is exports.ml's instead: the values
   declared by interfaces under P (default lib/) that no other unit in
   BUILD_DIR... references, and those only test/ references.  Exit status
   1 when either count exceeds its ceiling (0 without --ceiling); the
   values are listed then, or always with --verbose. *)

open Wafl_analyzer_lib

let usage =
  "usage: wafl_analyzer [--json] [--verbose] BUILD_DIR...\n\
  \       wafl_analyzer --exports [--verbose] [--prefix P] [--ceiling FILE] BUILD_DIR..."

(* The lists print when a count exceeds its ceiling, or with --verbose. *)
let exports ~verbose ~prefix ~ceiling dirs =
  let r = Exports.analyze ~prefix dirs in
  let ceiling = match ceiling with Some f -> Exports.read_ceiling f | None -> (0, 0) in
  let ok = Exports.within_ceiling r ceiling in
  if verbose || not ok then Exports.print_text r
  else
    Printf.printf "wafl_analyzer exports: %d unused, %d test-only\n" (List.length r.unused)
      (List.length r.test_only);
  exit (if ok then 0 else 1)

let () =
  let json = ref false in
  let verbose = ref false in
  let exports_mode = ref false and prefix = ref "lib/" and ceiling = ref None in
  let dirs = ref [] in
  let rec parse = function
    | [] -> ()
    | "--json" :: rest ->
        json := true;
        parse rest
    | "--verbose" :: rest ->
        verbose := true;
        parse rest
    | "--exports" :: rest ->
        exports_mode := true;
        parse rest
    | "--prefix" :: p :: rest ->
        prefix := p;
        parse rest
    | "--ceiling" :: f :: rest ->
        ceiling := Some f;
        parse rest
    | ("--help" | "-h") :: _ ->
        print_endline usage;
        exit 0
    | d :: rest ->
        dirs := d :: !dirs;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let dirs =
    if !dirs <> [] then List.rev !dirs
    else [ "_build/default/lib"; "_build/default/bin" ]
  in
  if !exports_mode then exports ~verbose:!verbose ~prefix:!prefix ~ceiling:!ceiling dirs;
  let prog, units = Load.load_program dirs in
  if units = [] then (
    prerr_endline "wafl_analyzer: no .cmt files found (build with dune first)";
    exit 2);
  if !verbose then (
    let nodes = Ir.nodes_in_order prog in
    let roots = List.filter (fun n -> n.Ir.n_root) nodes in
    Printf.eprintf "analyzed %d units, %d nodes, %d scheduler roots\n%!" (List.length units)
      (List.length nodes) (List.length roots);
    List.iter
      (fun r ->
        Printf.eprintf "  root %s%s\n%!" (Ir.node_id r)
          (if r.Ir.n_multi then " (many instances)" else ""))
      roots;
    let droots = List.filter (fun n -> n.Ir.n_domain) nodes in
    Printf.eprintf "%d pool-executed domain roots\n%!" (List.length droots);
    List.iter (fun r -> Printf.eprintf "  domain root %s\n%!" (Ir.node_id r)) droots;
    let probed, owned = Passes.ownership_sets prog in
    Printf.eprintf "probe_locked domains: %s\n%!" (String.concat " " probed);
    Printf.eprintf "registered owners:    %s\n%!" (String.concat " " owned));
  let findings = Passes.run_all prog in
  if !json then Report.print_json ~units:(List.length units) findings
  else if findings = [] then
    Printf.printf "wafl_analyzer: %d units analyzed, no findings\n" (List.length units)
  else Report.print_text findings;
  exit (if findings = [] then 0 else 1)
