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
   - raw store reads ([Disk.read], [Disk.read_exn],
     [Disk.compact_key], [Disk.compact_word]) outside lib/storage
     (everything else reads through [Raid.read] or [Raid.read_word],
     which apply the fault plan);
   - [Trace.metrics] outside lib/obs (components read their engine's
     registry, [Engine.metrics]);
   - module-level mutable state: a top-level value whose evaluation
     makes a [ref], a [Hashtbl]/[Queue]/[Stack]/[Buffer] ([create]) or
     an [Atomic] ([make]), even inside a record or tuple.  Every run in
     the process, on every worker domain, would share it; per-run state
     belongs to a value the run is built with;
   - [Stdlib.Queue], named anywhere: in a value, a type or a module
     path.  A queue that links its cells drags every cell pushed after
     its first promoted one into the major heap, with what the cell
     holds, even once popped; long-lived queues use [Wafl_util.Fifo];
   - [Bigarray], named anywhere outside lib/util/slab.ml: off-heap
     bytes go through [Wafl_util.Slab], whose owners keep and reuse
     their buffers (every fresh bigarray speeds up the major GC).

   No rule takes an escape: a use that looks order-insensitive or safe
   is rewritten (a [Map], an [Int_table], a sorted list) rather than
   annotated. *)

let findings = ref 0

let contains_sub line sub =
  let ls = String.length sub and ll = String.length line in
  let rec go i = i + ls <= ll && (String.sub line i ls = sub || go (i + 1)) in
  go 0

let report src (loc : Location.t) msg =
  incr findings;
  Printf.printf "%s:%d: %s\n" src loc.loc_start.pos_lnum msg

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
let in_storage src = contains_sub src "lib/storage/"

(* The one directory allowed to reach the metrics registry through a
   tracer: the observability subsystem.  The registry belongs to the
   engine, so components read [Engine.metrics]; a tracer that stood in
   for it would make the registry's owner depend on how a run is
   traced. *)
let in_obs src = Filename.basename (Filename.dirname src) = "obs"

let check_path src loc path =
  match path with
  | "Random" :: _ when base src <> "rng.ml" ->
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
                list, a Map or an Int_table instead"
               field)
      | field :: _ :: _ when List.mem field partition_mutators ->
          if not (List.mem (base src) mutator_whitelist) then
            report src loc
              (Printf.sprintf
                 "%s mutates partitioned bitmap state; only Infra/Cp may call it — post a \
                  message under the owning affinity instead"
                 field)
      | "record" :: "Sink" :: _ ->
          if not (List.mem (base src) sink_whitelist) then
            report src loc
              "Sink.record writes raw trace events; go through the Wafl_obs.Trace API \
               (with_span / instant / complete) instead"
      | "discard" :: "Disk" :: _ ->
          if not (String.ends_with ~suffix:image_owner src) then
            report src loc
              "Disk.discard drops a block image; only the aggregate's superblock publish may \
               discard, once no durable tree or snapshot can read the block"
      | (("read" | "read_exn" | "compact_key" | "compact_word") as field)
        :: "Disk" :: _ ->
          if not (in_storage src) then
            report src loc
              (Printf.sprintf
                 "Disk.%s reads the block store past the fault plan; read through Raid.read \
                  (Aggregate.read_pvbn in the file system) instead"
                 field)
      | "recycle" :: "Packed" :: _ ->
          if not (String.ends_with ~suffix:image_owner src) then
            report src loc
              "Packed.recycle hands an image's buffer to a spare pool for refilling; only the \
               aggregate's superblock publish may recycle, and only images it just discarded"
      | "metrics" :: "Trace" :: _ ->
          if not (in_obs src) then
            report src loc
              "Trace.metrics reaches the registry through a tracer; read the engine's own \
               registry with Engine.metrics instead"
      | field :: "Trace" :: _ when List.mem field causal_primitives ->
          if not (List.mem (base src) causal_whitelist) then
            report src loc
              (Printf.sprintf
                 "Trace.%s emits raw causal flow events; instrument through Wafl_obs.Causal \
                  so every causal edge comes from one audited API"
                 field)
      | _ -> ())

(* [Stdlib.Queue] in any path. *)
let check_queue src loc = function
  | "Queue" :: _ | "Stdlib" :: "Queue" :: _ ->
      report src loc
        "Stdlib.Queue links a cell per push, and once one cell of a busy queue is \
         promoted the minor GC promotes every later cell with its element, popped or not; \
         use Wafl_util.Fifo"
  | _ -> ()

(* The one file allowed to name [Bigarray]. *)
let slab_owner = "lib/util/slab.ml"

(* [Bigarray] in any path outside the slab module. *)
let check_bigarray src loc = function
  | ("Bigarray" :: _ | "Stdlib" :: "Bigarray" :: _)
    when not (String.ends_with ~suffix:slab_owner src) ->
      report src loc
        "Bigarray outside Wafl_util.Slab; keep off-heap bytes in a Slab, which owns the \
         primitives and whose owners reuse their buffers"
  | _ -> ()

(* Both path rules that hold wherever a module path appears. *)
let check_anywhere src loc path =
  check_queue src loc path;
  check_bigarray src loc path

let makes_mutable_state path =
  match List.rev path with
  | [ "ref" ] | [ "ref"; "Stdlib" ]
  | "create" :: ("Hashtbl" | "Queue" | "Stack" | "Buffer") :: _
  | "make" :: "Atomic" :: _ ->
      true
  | _ -> false

(* The mutable-state maker [e] calls when module initialisation
   evaluates it, if any.  Function bodies and lazy values are not
   searched: initialisation does not run them. *)
let eager_maker (e : Parsetree.expression) =
  let found = ref None in
  let open Ast_iterator in
  let expr it (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ | Pexp_lazy _ -> ()
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
      when makes_mutable_state (Longident.flatten txt) ->
        if !found = None then found := Some (String.concat "." (Longident.flatten txt))
    | _ -> default_iterator.expr it e
  in
  let it = { default_iterator with expr } in
  it.expr it e;
  !found

(* Top-level bindings, including those of nested structures. *)
let rec check_module_state src (items : Parsetree.structure) =
  List.iter
    (fun (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Pstr_value (_, bindings) ->
          List.iter
            (fun (vb : Parsetree.value_binding) ->
              match eager_maker vb.pvb_expr with
              | Some maker ->
                  report src vb.pvb_loc
                    (Printf.sprintf
                       "top-level %s is module-level mutable state, shared by every run in \
                        the process; build it per run (a create function, or a value the \
                        run is built with)"
                       maker)
              | None -> ())
            bindings
      | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure items; _ }; _ } ->
          check_module_state src items
      | _ -> ())
    items

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
           the exceptions you mean"
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
    | Pexp_ident { txt; loc } ->
        check_path src loc (Longident.flatten txt);
        check_anywhere src loc (Longident.flatten txt)
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
    check_anywhere src od.popen_expr.loc (Longident.flatten od.popen_expr.txt);
    default_iterator.open_description it od
  in
  let typ it (ty : Parsetree.core_type) =
    (match ty.ptyp_desc with
    | Ptyp_constr ({ txt; loc }, _) -> check_anywhere src loc (Longident.flatten txt)
    | _ -> ());
    default_iterator.typ it ty
  in
  let module_expr it (me : Parsetree.module_expr) =
    (match me.pmod_desc with
    | Pmod_ident { txt; loc } -> check_anywhere src loc (Longident.flatten txt)
    | _ -> ());
    default_iterator.module_expr it me
  in
  { default_iterator with expr; open_description; typ; module_expr }

let lint_file path =
  let lexbuf = Lexing.from_string (In_channel.with_open_bin path In_channel.input_all) in
  Location.init lexbuf path;
  match Parse.implementation lexbuf with
  | ast ->
      let it = iterator path in
      it.Ast_iterator.structure it ast;
      check_module_state path ast
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
  let roots = ref [] in
  Arg.parse [] (fun root -> roots := root :: !roots) "wafl_lint [PATH ...]";
  List.iter walk (if !roots = [] then [ "lib" ] else List.rev !roots);
  if !findings > 0 then begin
    Printf.printf "wafl_lint: %d finding(s)\n" !findings;
    exit 1
  end
