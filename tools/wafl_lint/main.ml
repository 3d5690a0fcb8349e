(* Determinism lint for the simulator sources.

   The whole repository leans on one property: a run is a pure function
   of its spec.  The simulator gets that from cooperative scheduling and
   virtual time, and loses it the moment somebody reads a wall clock,
   pulls entropy from the global [Random] state, or iterates a [Hashtbl]
   in hash order where the order feeds back into scheduling.  This tool
   walks every .ml file's AST (via compiler-libs) and flags:

   - any use of the [Random] module outside the seeded [Util.Rng]
     wrapper (rng.ml itself is exempt);
   - wall-clock reads: [Unix.gettimeofday], [Unix.time], [Sys.time];
   - hash-order iteration: [Hashtbl.iter] / [Hashtbl.fold] (insertion
     hashing makes the visit order an implementation detail);
   - qualified calls to the aggregate's partition-state mutators
     ([commit_alloc_pvbn] & friends) outside infra.ml / cp.ml — all
     other code must go through the Scheduler.post affinity API;
   - [Disk.discard] or [Packed.recycle] outside lib/fs/aggregate.ml
     (block images die only at a superblock publish, and only that
     publish may hand a dead image's buffer to the spare pool);
   - raw store reads ([Disk.read], [Disk.read_checked], [Disk.read_exn],
     [Disk.compact_key], [Disk.compact_word]) outside lib/storage
     (everything else reads through [Raid.read] or [Raid.read_word],
     which apply the fault plan);
   - [Trace.metrics] outside lib/obs (components read their engine's
     registry, [Engine.metrics]).

   A finding is suppressed when the token "lint-ok" appears on the
   flagged line or the line directly above it (typically in a comment
   explaining why the use is safe, e.g. a Hashtbl.fold whose result is
   sorted before use).

   Escapes are ratcheted: with [--max-lint-ok N], the run also fails
   when the linted files carry more than N lines with the token.  The
   ceiling for lib/ is checked in next to this file (lint_ok_ceiling);
   lower it when an escape goes away, never raise it. *)

let findings = ref 0
let escapes = ref 0

type source = { name : string; lines : string array }

let read_lines path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  (s, Array.of_list (String.split_on_char '\n' s))

let contains_sub line sub =
  let ls = String.length sub and ll = String.length line in
  let rec go i = i + ls <= ll && (String.sub line i ls = sub || go (i + 1)) in
  go 0

let suppressed src lnum =
  let check i = i >= 1 && i <= Array.length src.lines && contains_sub src.lines.(i - 1) "lint-ok" in
  check lnum || check (lnum - 1)

let report src (loc : Location.t) msg =
  let lnum = loc.loc_start.pos_lnum in
  if not (suppressed src lnum) then begin
    incr findings;
    Printf.printf "%s:%d: %s\n" src.name lnum msg
  end

let base name = Filename.basename name

let partition_mutators =
  [ "commit_alloc_pvbn"; "commit_free_pvbn"; "commit_alloc_vvbn"; "commit_free_vvbn" ]

(* Files allowed to touch the bitmap partitions directly: the
   infrastructure module that owns them and the CP engine's serial /
   repair paths (which run with the aggregate quiesced). *)
let mutator_whitelist = [ "infra.ml"; "cp.ml"; "aggregate.ml" ]

(* Files allowed to write trace events directly: the observability
   subsystem itself.  Everything else must record through the Trace API
   (with_span / instant / complete), which keeps the disabled path a
   single branch and the event stream well-formed. *)
let sink_whitelist = [ "trace.ml"; "metrics.ml"; "sink.ml" ]

(* Files allowed to call the raw causal-edge primitives on [Trace]
   (capture / restore / with_root / fiber_reset): the observability
   subsystem itself.  Instrumentation elsewhere must go through
   [Wafl_obs.Causal], so every causal edge in a trace comes from one
   audited API (and the analyzer can trust edge pairing). *)
let causal_primitives = [ "capture"; "restore"; "with_root"; "fiber_reset" ]
let causal_whitelist = [ "trace.ml"; "causal.ml" ]

(* Files allowed to append raw health events: the watchdog itself.  Every
   alert elsewhere must come from a typed rule evaluated at window seal,
   so the event stream stays structured (and the fleet view can trust
   rule names). *)
let health_whitelist = [ "health.ml" ]

(* The one file allowed to drop block images from the simulated disk and
   recycle their buffers: the aggregate, which discards a freed block
   only once the superblock that stops referencing it is published and
   no snapshot holds it, then hands the dropped image to its spare pool.
   A discard anywhere else could drop an image a recovery or snapshot
   still reads; a recycle anywhere else could refill a live image. *)
let image_owner = "lib/fs/aggregate.ml"

(* The one directory allowed to read the block store directly: the
   storage layer, where [Raid.read] applies the fault plan (media errors
   reconstructed and counted, a block lost in a degraded group reported
   as lost).  A raw read anywhere else returns stored data the fault
   plan says is unreadable. *)
let in_storage src = contains_sub src.name "lib/storage/"

(* The one directory allowed to reach the metrics registry through a
   tracer: the observability subsystem.  The registry belongs to the
   engine, so components read [Engine.metrics]; a tracer that stood in
   for it would make the registry's owner depend on how a run is
   traced. *)
let in_obs src = Filename.basename (Filename.dirname src.name) = "obs"

let check_path src loc path =
  match path with
  | "Random" :: _ when base src.name <> "rng.ml" ->
      report src loc
        "use of the global Random module; draw from the seeded Util.Rng instead (determinism)"
  | [ "Unix"; ("gettimeofday" | "time") ] | [ "Sys"; "time" ] ->
      report src loc
        (Printf.sprintf "wall-clock read %s; use the engine's virtual clock (Engine.now)"
           (String.concat "." path))
  | _ -> (
      match List.rev path with
      | field :: "Hashtbl" :: _ when field = "iter" || field = "fold" ->
          report src loc
            (Printf.sprintf
               "Hashtbl.%s visits in hash order; iterate a sorted or insertion-ordered key \
                list (or mark lint-ok if the result is order-insensitive)"
               field)
      | field :: _ :: _ when List.mem field partition_mutators ->
          if not (List.mem (base src.name) mutator_whitelist) then
            report src loc
              (Printf.sprintf
                 "%s mutates partitioned bitmap state; only Infra/Cp may call it — post a \
                  message under the owning affinity instead"
                 field)
      | "record" :: "Sink" :: _ ->
          if not (List.mem (base src.name) sink_whitelist) then
            report src loc
              "Sink.record writes raw trace events; go through the Wafl_obs.Trace API \
               (with_span / instant / complete) instead"
      | "emit" :: "Health" :: _ ->
          if not (List.mem (base src.name) health_whitelist) then
            report src loc
              "Health.emit appends raw watchdog events; add a typed Health.rule evaluated \
               at window seal instead"
      | "discard" :: "Disk" :: _ ->
          if not (String.ends_with ~suffix:image_owner src.name) then
            report src loc
              "Disk.discard drops a block image; only the aggregate's superblock publish may \
               discard, once no durable tree or snapshot can read the block"
      | (("read" | "read_checked" | "read_exn" | "compact_key" | "compact_word") as field)
        :: "Disk" :: _ ->
          if not (in_storage src) then
            report src loc
              (Printf.sprintf
                 "Disk.%s reads the block store past the fault plan; read through Raid.read \
                  (Aggregate.read_pvbn in the file system) instead"
                 field)
      | "recycle" :: "Packed" :: _ ->
          if not (String.ends_with ~suffix:image_owner src.name) then
            report src loc
              "Packed.recycle hands an image's buffer to a spare pool for refilling; only the \
               aggregate's superblock publish may recycle, and only images it just discarded"
      | "metrics" :: "Trace" :: _ ->
          if not (in_obs src) then
            report src loc
              "Trace.metrics reaches the registry through a tracer; read the engine's own \
               registry with Engine.metrics instead"
      | field :: "Trace" :: _ when List.mem field causal_primitives ->
          if not (List.mem (base src.name) causal_whitelist) then
            report src loc
              (Printf.sprintf
                 "Trace.%s emits raw causal flow events; instrument through Wafl_obs.Causal \
                  so every causal edge comes from one audited API"
                 field)
      | _ -> ())

(* A handler pattern that swallows every exception: [_], possibly
   aliased or in an or-pattern arm. *)
let rec catch_all (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_any -> true
  | Ppat_alias (p, _) -> catch_all p
  | Ppat_or (a, b) -> catch_all a || catch_all b
  | _ -> false

let check_catch_all src (cases : Parsetree.case list) ~in_try =
  List.iter
    (fun (c : Parsetree.case) ->
      let flag loc =
        report src loc
          "catch-all exception handler swallows typed faults (e.g. Nvlog.Exhausted); match \
           the exceptions you mean, or mark lint-ok with a reason"
      in
      if in_try then begin
        if catch_all c.pc_lhs then flag c.pc_lhs.ppat_loc
      end
      else
        (* [match ... with exception _ ->] is a try in disguise *)
        match c.pc_lhs.ppat_desc with
        | Ppat_exception p when catch_all p -> flag c.pc_lhs.ppat_loc
        | _ -> ())
    cases

let iterator src =
  let open Ast_iterator in
  let expr it (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> check_path src loc (Longident.flatten txt)
    | Pexp_open ({ popen_expr = { pmod_desc = Pmod_ident { txt; loc }; _ }; _ }, _) ->
        (* [let open Random in ...] smuggles the module in unqualified. *)
        check_path src loc (Longident.flatten txt)
    | Pexp_try (_, cases) -> check_catch_all src cases ~in_try:true
    | Pexp_match (_, cases) -> check_catch_all src cases ~in_try:false
    | _ -> ());
    default_iterator.expr it e
  in
  let open_description it (od : Parsetree.open_description) =
    check_path src od.popen_expr.loc (Longident.flatten od.popen_expr.txt);
    default_iterator.open_description it od
  in
  { default_iterator with expr; open_description }

let lint_file path =
  let text, lines = read_lines path in
  let src = { name = path; lines } in
  Array.iter (fun line -> if contains_sub line "lint-ok" then incr escapes) lines;
  let lexbuf = Lexing.from_string text in
  Location.init lexbuf path;
  match Parse.implementation lexbuf with
  | ast ->
      let it = iterator src in
      it.Ast_iterator.structure it ast
  | exception _ ->
      incr findings;
      Printf.printf "%s:1: parse error (file skipped)\n" path

let rec walk path =
  if Sys.is_directory path then
    Array.iter
      (fun entry ->
        let child = Filename.concat path entry in
        if Sys.is_directory child || Filename.check_suffix entry ".ml" then walk child)
      (let entries = Sys.readdir path in
       Array.sort compare entries;
       entries)
  else if Filename.check_suffix path ".ml" then lint_file path

let () =
  let max_lint_ok = ref None and roots = ref [] in
  Arg.parse
    [
      ( "--max-lint-ok",
        Arg.Int (fun n -> max_lint_ok := Some n),
        "N fail when the linted files carry more than N lint-ok escapes" );
    ]
    (fun root -> roots := root :: !roots)
    "wafl_lint [--max-lint-ok N] [PATH ...]";
  List.iter walk (if !roots = [] then [ "lib" ] else List.rev !roots);
  (match !max_lint_ok with
  | Some ceiling when !escapes > ceiling ->
      incr findings;
      Printf.printf
        "%d lint-ok escapes exceed the checked-in ceiling of %d; fix the new finding instead \
         of suppressing it\n"
        !escapes ceiling
  | Some ceiling when !escapes < ceiling ->
      Printf.printf "note: %d lint-ok escapes, below the ceiling of %d; lower the ceiling\n" !escapes
        ceiling
  | Some _ | None -> ());
  if !findings > 0 then begin
    Printf.printf "wafl_lint: %d finding(s)\n" !findings;
    exit 1
  end
