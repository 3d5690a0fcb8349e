(* Typedtree collection: one walk per compilation unit producing the IR
   nodes.  The walk resolves value paths against the whole-program unit
   set, so cross-library references (Wafl_qos.Qos.admit,
   Wafl_sim.Engine.probe, Mutex.lock) all normalize to
   (unit, function) pairs regardless of how dune mangles module names.

   Attribution model:
   - every top-level value binding is a node; a lambda passed to a
     spawner (Engine.spawn / Scheduler.post / post_wait, or a same-named
     local wrapper) becomes its own *root* node, marked multi-instance
     when the spawn site sits inside a loop or closure;
   - mutable record field reads/writes, ref ops, and calls into
     container modules (Hashtbl, Array, Histogram, ...) become access
     sites against the family (declaring unit, field/binding name);
     container calls are attributed to the caller's argument, so
     [Histogram.add rec_.whist x] is a write to the recorder's field;
   - a local mutable binding referenced from a root lambda that did not
     bind it is a *captured* family (the closure smuggled state across a
     spawn boundary);
   - lock acquisition is tracked syntactically through sequence chains
     ([lock m; ...; unlock m]) and [Mutex.protect]; blocking
     primitives and outgoing calls made while a lock is held are
     recorded for the blocking / lock-order passes. *)

open Typedtree
open Ir

type ctx = {
  prog : program;
  unit_ : string;
  known_units : (string, unit) Hashtbl.t;
  toplevels : (string, unit) Hashtbl.t;
  lock_names : (string, string) Hashtbl.t; (* toplevel mutex binding -> ~name literal *)
  mutable node : node;
  mutable host : string; (* enclosing top-level binding, for root naming *)
  mutable bound : (string, unit) Hashtbl.t; (* idents bound inside the current node *)
  mutable held : string list;
  mutable lambda_depth : int;
  mutable loop_depth : int;
  mutable spawn_count : int;
  mutable domain_arg : bool; (* walking an argument of a domain spawner *)
}

let pending_roots : (string * string * bool) Queue.t = Queue.create ()
let pending_domain_roots : (string * string) Queue.t = Queue.create ()

(* --- path normalization ------------------------------------------------- *)

(* "Wafl_qos__Token_bucket" -> "Token_bucket": strip the dune wrapping
   prefix so units compare by their source module name. *)
let norm_part s =
  let rec last_sep i acc =
    if i + 1 >= String.length s then acc
    else if s.[i] = '_' && s.[i + 1] = '_' then last_sep (i + 2) (Some (i + 2))
    else last_sep (i + 1) acc
  in
  match last_sep 0 None with
  | Some j when j < String.length s -> String.sub s j (String.length s - j)
  | _ -> s

let rec path_parts = function
  | Path.Pident id -> [ norm_part (Ident.name id) ]
  | Path.Pdot (p, s) -> path_parts p @ [ norm_part s ]
  | Path.Papply (p, _) -> path_parts p
  | Path.Pextra_ty (p, _) -> path_parts p

(* (unit, dotted fn) for call-graph edges: the *last* path component
   that names a known compilation unit wins (so the library wrapper in
   Wafl_qos.Qos.admit resolves to Qos), falling back to the current unit
   for unqualified top-level names.  None for stdlib / local paths. *)
let resolve ctx parts =
  let rec scan best = function
    | [] | [ _ ] -> best
    | p :: rest ->
        let best = if Hashtbl.mem ctx.known_units p then Some (p, rest) else best in
        scan best rest
  in
  match scan None parts with
  | Some (u, fn) -> Some (u, String.concat "." fn)
  | None ->
      (* same-unit reference, possibly through nested modules *)
      let dotted = String.concat "." parts in
      if Hashtbl.mem ctx.toplevels dotted then Some (ctx.unit_, dotted) else None

(* (module, fn): the last two components, for matching the config's
   primitive tables (Mutex.lock, Waitq.wait, Hashtbl.add, ...);
   unqualified names belong to the current unit. *)
let last2 ctx parts =
  match List.rev parts with
  | fn :: m :: _ -> (m, fn)
  | [ fn ] -> (ctx.unit_, fn)
  | [] -> ("", "")

let head_path (e : expression) =
  match e.exp_desc with Texp_ident (p, _, _) -> Some p | _ -> None

let positional args =
  List.filter_map (function Asttypes.Nolabel, Some a -> Some a | _ -> None) args

let labelled name args =
  List.find_map
    (function
      | Asttypes.Labelled l, Some a when l = name -> Some a
      | Asttypes.Optional l, Some a when l = name -> Some a
      | _ -> None)
    args

let string_lit (e : expression) =
  match e.exp_desc with Texp_constant (Const_string (s, _, _)) -> Some s | _ -> None

let container_mode (m, fn) =
  List.find_map
    (fun (cm, writes, reads) ->
      if cm <> m then None
      else if List.mem fn writes then Some Write
      else if List.mem fn reads then Some Read
      else None)
    Config.containers

(* --- families ----------------------------------------------------------- *)

let unit_of_type ctx (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> (
      match resolve ctx (path_parts p) with Some (u, _) -> u | None -> ctx.unit_)
  | _ -> ctx.unit_

let fam_of_label ctx (lbl : Types.label_description) =
  { f_unit = unit_of_type ctx lbl.lbl_res; f_name = lbl.lbl_name; f_captured = false;
    f_global = false }

(* The family named by a container / ref argument: a record field, a
   module-level binding, or a local captured across a spawn boundary.
   Locals bound inside the current node are private and return None. *)
let family_of ctx (e : expression) =
  match e.exp_desc with
  | Texp_field (_, _, lbl) -> Some (fam_of_label ctx lbl)
  | Texp_ident (Path.Pident id, _, _) ->
      let name = Ident.name id in
      if Hashtbl.mem ctx.bound name then None
      else if Hashtbl.mem ctx.toplevels name then
        Some { f_unit = ctx.unit_; f_name = name; f_captured = false; f_global = true }
      else
        Some
          { f_unit = ctx.unit_; f_name = ctx.host ^ "." ^ name; f_captured = true;
            f_global = false }
  | Texp_ident (p, _, _) -> (
      match resolve ctx (path_parts p) with
      | Some (u, n) -> Some { f_unit = u; f_name = n; f_captured = false; f_global = true }
      | None -> None)
  | _ -> None

let record_access ctx fam mode loc =
  match fam with
  | None -> ()
  | Some f ->
      ctx.node.n_accesses <-
        { a_fam = f; a_mode = mode; a_loc = loc; a_held = ctx.held } :: ctx.node.n_accesses

(* --- lock classes ------------------------------------------------------- *)

let lock_class ctx (e : expression) =
  match e.exp_desc with
  | Texp_field (_, _, lbl) -> unit_of_type ctx lbl.lbl_res ^ "." ^ lbl.lbl_name
  | Texp_ident (Path.Pident id, _, _) -> (
      let name = Ident.name id in
      match Hashtbl.find_opt ctx.lock_names name with
      | Some n -> n
      | None -> ctx.unit_ ^ "." ^ name)
  | Texp_ident (p, _, _) -> (
      match resolve ctx (path_parts p) with
      | Some (u, n) -> u ^ "." ^ n
      | None -> "<dynamic>")
  | _ -> "<dynamic>"

let record_acquire ctx cls loc =
  ctx.node.n_acquires <- (cls, loc) :: ctx.node.n_acquires;
  if ctx.held <> [] then
    ctx.node.n_lock_sites <-
      { ls_held = ctx.held; ls_target = `Acquire cls; ls_loc = loc } :: ctx.node.n_lock_sites

(* --- the walk ----------------------------------------------------------- *)

let bind_pat : 'k. ctx -> 'k general_pattern -> unit =
 fun ctx p ->
  List.iter (fun id -> Hashtbl.replace ctx.bound (Ident.name id) ()) (pat_bound_idents p)

(* ~shared argument of a probe / register_owner call: a string literal,
   or the head of the generator application producing the name. *)
let probe_arg ctx args =
  match labelled "shared" args with
  | None -> (None, None)
  | Some a -> (
      match string_lit a with
      | Some s -> (Some s, None)
      | None -> (
          match a.exp_desc with
          | Texp_apply (f, _) -> (
              match head_path f with
              | Some p -> (None, resolve ctx (path_parts p))
              | None -> (None, None))
          | _ -> (None, None)))

let fresh_node ctx ~name ~root ~multi loc =
  let node =
    {
      n_unit = ctx.unit_;
      n_name = name;
      n_loc = loc;
      n_root = root;
      n_multi = multi;
      n_domain = false;
      n_calls = [];
      n_accesses = [];
      n_probes = [];
      n_blocking = [];
      n_lock_sites = [];
      n_acquires = [];
      n_strings = [];
    }
  in
  add_node ctx.prog node;
  node

let rec walk ctx (e : expression) =
  match e.exp_desc with
  | Texp_constant (Const_string (s, _, _)) ->
      if String.length s <= 80 then ctx.node.n_strings <- s :: ctx.node.n_strings
  | Texp_constant _ -> ()
  | Texp_ident (p, _, _) -> (
      match resolve ctx (path_parts p) with
      | Some (u, n) ->
          ctx.node.n_calls <-
            { c_unit = u; c_name = n; c_loc = loc_of e.exp_loc } :: ctx.node.n_calls;
          (* a named function handed to a domain spawner executes on
             worker domains: mark it once all units are collected *)
          if ctx.domain_arg then Queue.add (u, n) pending_domain_roots
      | None -> ())
  | Texp_apply (f, args) -> handle_apply ctx e f args
  | Texp_sequence _ -> walk_seq ctx e
  | Texp_setfield (r, _, lbl, v) ->
      record_access ctx (Some (fam_of_label ctx lbl)) Write (loc_of e.exp_loc);
      walk ctx r;
      walk ctx v
  | Texp_field (r, _, lbl) ->
      if lbl.lbl_mut = Mutable then
        record_access ctx (Some (fam_of_label ctx lbl)) Read (loc_of e.exp_loc);
      walk ctx r
  | Texp_let (_, vbs, body) ->
      List.iter
        (fun vb ->
          walk ctx vb.vb_expr;
          bind_pat ctx vb.vb_pat)
        vbs;
      walk ctx body
  | Texp_function { cases; _ } ->
      if ctx.domain_arg then domain_root ctx e cases
      else begin
        ctx.lambda_depth <- ctx.lambda_depth + 1;
        walk_cases ctx cases;
        ctx.lambda_depth <- ctx.lambda_depth - 1
      end
  | Texp_match (scrut, cases, _) ->
      walk ctx scrut;
      walk_cases ctx cases
  | Texp_try (body, cases) ->
      walk ctx body;
      walk_cases ctx cases
  | Texp_while (cond, body) ->
      walk ctx cond;
      ctx.loop_depth <- ctx.loop_depth + 1;
      walk ctx body;
      ctx.loop_depth <- ctx.loop_depth - 1
  | Texp_for (id, _, lo, hi, _, body) ->
      walk ctx lo;
      walk ctx hi;
      Hashtbl.replace ctx.bound (Ident.name id) ();
      ctx.loop_depth <- ctx.loop_depth + 1;
      walk ctx body;
      ctx.loop_depth <- ctx.loop_depth - 1
  | _ -> generic ctx e

and walk_cases : 'k. ctx -> 'k case list -> unit =
 fun ctx cases ->
  List.iter
    (fun c ->
      bind_pat ctx c.c_lhs;
      (match c.c_guard with Some g -> walk ctx g | None -> ());
      walk ctx c.c_rhs)
    cases

(* Fallback for expression forms with no special handling: the default
   iterator enumerates the children, each re-entering [walk]. *)
and generic ctx (e : expression) =
  let it =
    {
      Tast_iterator.default_iterator with
      expr = (fun _ child -> walk ctx child);
      pat = (fun _ _ -> ());
    }
  in
  Tast_iterator.default_iterator.expr it e

(* Sequences carry the syntactic lock scope: [lock m; ...; unlock m]. *)
and walk_seq ctx e =
  let rec stmts (e : expression) =
    match e.exp_desc with Texp_sequence (a, b) -> a :: stmts b | _ -> [ e ]
  in
  let saved = ctx.held in
  List.iter
    (fun (s : expression) ->
      match s.exp_desc with
      | Texp_apply (f, args) -> (
          match head_path f with
          | Some p -> (
              let m2 = last2 ctx (path_parts p) in
              match positional args with
              | m :: _ when Config.is_lock m2 ->
                  let cls = lock_class ctx m in
                  record_acquire ctx cls (loc_of s.exp_loc);
                  ctx.held <- cls :: ctx.held
              | m :: _ when Config.is_unlock m2 ->
                  let cls = lock_class ctx m in
                  ctx.held <- List.filter (fun c -> c <> cls) ctx.held
              | _ -> walk ctx s)
          | None -> walk ctx s)
      | _ -> walk ctx s)
    (stmts e);
  ctx.held <- saved

and handle_apply ctx (e : expression) f args =
  let loc = loc_of e.exp_loc in
  match head_path f with
  | None ->
      walk ctx f;
      List.iter (fun (_, a) -> Option.iter (walk ctx) a) args
  | Some p -> (
      let parts = path_parts p in
      let res = resolve ctx parts in
      let m2, fn2 = last2 ctx parts in
      let record_call () =
        match res with
        | Some (u, n) ->
            ctx.node.n_calls <- { c_unit = u; c_name = n; c_loc = loc } :: ctx.node.n_calls
        | None -> ()
      in
      let walk_args ?(skip = []) () =
        List.iter
          (fun (_, a) ->
            match a with Some a when not (List.memq a skip) -> walk ctx a | _ -> ())
          args
      in
      match res with
      | Some (u, fn) when Config.is_probe ~unit_:u ~fn ->
          let lit, gen = probe_arg ctx args in
          ctx.node.n_probes <-
            { p_kind = fn; p_literal = lit; p_gen = gen; p_loc = loc } :: ctx.node.n_probes;
          walk_args ()
      | Some (u, fn) when Config.is_register_owner ~unit_:u ~fn ->
          let lit, gen = probe_arg ctx args in
          ctx.prog.owners_declared <-
            { p_kind = "register_owner"; p_literal = lit; p_gen = gen; p_loc = loc }
            :: ctx.prog.owners_declared;
          walk_args ()
      | _ when is_spawner res (m2, fn2) -> (
          record_call ();
          match List.rev (positional args) with
          | body :: _ ->
              spawn_root ctx body;
              walk_args ~skip:[ body ] ()
          | [] -> walk_args ())
      | _ when is_domain_spawner res (m2, fn2) ->
          (* every function value among the arguments runs on a worker
             domain: walk them in domain context so lambdas become
             domain roots and named functions are queued *)
          record_call ();
          let saved = ctx.domain_arg in
          ctx.domain_arg <- true;
          walk_args ();
          ctx.domain_arg <- saved
      | _ when Config.is_protect (m2, fn2) -> (
          match positional args with
          | m :: rest ->
              let cls = lock_class ctx m in
              record_acquire ctx cls loc;
              ctx.held <- cls :: ctx.held;
              (match rest with
              | [ body ] -> (
                  match body.exp_desc with
                  | Texp_function { cases; _ } -> walk_cases ctx cases
                  | _ -> (
                      walk ctx body;
                      match head_path body with
                      | Some bp -> (
                          match resolve ctx (path_parts bp) with
                          | Some (u, n) ->
                              ctx.node.n_lock_sites <-
                                { ls_held = ctx.held; ls_target = `Call (u, n); ls_loc = loc }
                                :: ctx.node.n_lock_sites
                          | None -> ())
                      | None -> ()))
              | other -> List.iter (walk ctx) other);
              ctx.held <- List.tl ctx.held;
              walk ctx m
          | [] -> walk_args ())
      | _ when Config.is_blocking ~unit_:m2 ~fn:fn2 ->
          ctx.node.n_blocking <- (m2 ^ "." ^ fn2, loc) :: ctx.node.n_blocking;
          (if ctx.held <> [] then
             let allowed =
               (* Condition.wait releases its own mutex: holding exactly
                  that mutex is the intended use. *)
               Config.is_condition_wait (m2, fn2)
               &&
               match positional args with
               | [ _; m ] -> List.for_all (fun h -> h = lock_class ctx m) ctx.held
               | _ -> false
             in
             if not allowed then
               ctx.node.n_lock_sites <-
                 { ls_held = ctx.held; ls_target = `Block (m2 ^ "." ^ fn2); ls_loc = loc }
                 :: ctx.node.n_lock_sites);
          record_call ();
          walk_args ()
      | _ when Config.is_lock (m2, fn2) || Config.is_unlock (m2, fn2) ->
          (* lock/unlock outside a sequence chain: record the acquire for
             the lock-order pass; scope tracking is sequence-based. *)
          (match positional args with
          | m :: _ when Config.is_lock (m2, fn2) -> record_acquire ctx (lock_class ctx m) loc
          | _ -> ());
          walk_args ()
      | _ ->
          (* container-module call: attribute the access to the caller's
             first positional argument *)
          (match container_mode (m2, fn2) with
          | Some mode -> (
              match positional args with
              | a :: _ -> record_access ctx (family_of ctx a) mode loc
              | [] -> ())
          | None -> ());
          (* plain ref ops *)
          (match (fn2, positional args) with
          | "!", a :: _ -> record_access ctx (family_of ctx a) Read loc
          | (":=" | "incr" | "decr"), a :: _ -> record_access ctx (family_of ctx a) Write loc
          | _ -> ());
          record_call ();
          (* a partial application in a domain spawner's argument list
             (Exp.par_map ctx (run_one ctx) xs) hands the named function
             to the pool *)
          (if ctx.domain_arg then
             match res with
             | Some (u, n) -> Queue.add (u, n) pending_domain_roots
             | None -> ());
          (if ctx.held <> [] then
             match res with
             | Some (u, n) ->
                 ctx.node.n_lock_sites <-
                   { ls_held = ctx.held; ls_target = `Call (u, n); ls_loc = loc }
                   :: ctx.node.n_lock_sites
             | None -> ());
          walk_args ())

and is_spawner res m2fn2 =
  (match res with Some (u, n) -> List.mem (u, n) Config.spawners | None -> false)
  || match m2fn2 with _, ("spawn" | "post" | "post_wait") -> true | _ -> false

and is_domain_spawner res m2fn2 =
  (match res with Some uf -> List.mem uf Config.domain_spawners | None -> false)
  || List.mem m2fn2 Config.domain_spawners

(* A lambda in a domain spawner's argument list: its body executes
   concurrently on pool worker domains, once per task/item, so it gets
   its own many-instance node flagged [n_domain].  Bindings of the
   enclosing node are captures smuggled across the domain boundary. *)
and domain_root ctx (body : expression) cases =
  ctx.spawn_count <- ctx.spawn_count + 1;
  let name = Printf.sprintf "%s$domain%d" ctx.host ctx.spawn_count in
  let root = fresh_node ctx ~name ~root:false ~multi:true (loc_of body.exp_loc) in
  root.n_domain <- true;
  let saved_node = ctx.node and saved_bound = ctx.bound in
  let saved_lam = ctx.lambda_depth and saved_loop = ctx.loop_depth in
  ctx.node <- root;
  ctx.bound <- Hashtbl.create 16;
  ctx.lambda_depth <- 0;
  ctx.loop_depth <- 0;
  ctx.domain_arg <- false;
  walk_cases ctx cases;
  ctx.node <- saved_node;
  ctx.bound <- saved_bound;
  ctx.lambda_depth <- saved_lam;
  ctx.loop_depth <- saved_loop;
  ctx.domain_arg <- true

(* A function value reaching a spawner becomes a root node: a literal
   lambda gets its own node; a named function (or partial application)
   is marked as a root in place once all units are collected. *)
and spawn_root ctx (body : expression) =
  let multi = ctx.lambda_depth > 0 || ctx.loop_depth > 0 in
  match body.exp_desc with
  | Texp_function { cases; _ } ->
      ctx.spawn_count <- ctx.spawn_count + 1;
      let name = Printf.sprintf "%s$spawn%d" ctx.host ctx.spawn_count in
      let root = fresh_node ctx ~name ~root:true ~multi (loc_of body.exp_loc) in
      let saved_node = ctx.node and saved_bound = ctx.bound in
      let saved_lam = ctx.lambda_depth and saved_loop = ctx.loop_depth in
      let saved_dom = ctx.domain_arg in
      ctx.node <- root;
      (* bindings of the enclosing node are *captured*, not local: track
         only what the lambda itself binds *)
      ctx.bound <- Hashtbl.create 16;
      ctx.lambda_depth <- 0;
      ctx.loop_depth <- 0;
      ctx.domain_arg <- false;
      walk_cases ctx cases;
      ctx.node <- saved_node;
      ctx.bound <- saved_bound;
      ctx.lambda_depth <- saved_lam;
      ctx.loop_depth <- saved_loop;
      ctx.domain_arg <- saved_dom
  | _ -> (
      let target =
        match body.exp_desc with
        | Texp_ident (p, _, _) -> Some p
        | Texp_apply (h, hargs) ->
            List.iter (fun (_, a) -> Option.iter (walk ctx) a) hargs;
            head_path h
        | _ ->
            walk ctx body;
            None
      in
      match target with
      | Some p -> (
          match resolve ctx (path_parts p) with
          | Some (u, n) -> Queue.add (u, n, multi) pending_roots
          | None -> ())
      | None -> ())

(* The curried parameter layers of a top-level binding are the
   function's own arguments, not nested closures: peel them at lambda
   depth 0 so only genuinely nested lambdas mark spawn sites as
   multi-instance. *)
let rec walk_top ctx (e : expression) =
  match e.exp_desc with
  | Texp_function { cases; _ } ->
      List.iter
        (fun c ->
          bind_pat ctx c.c_lhs;
          (match c.c_guard with Some g -> walk ctx g | None -> ());
          walk_top ctx c.c_rhs)
        cases
  | _ -> walk ctx e

(* --- structure walk ----------------------------------------------------- *)

let binding_names vb = List.map Ident.name (pat_bound_idents vb.vb_pat)

let rec unwrap_module (me : module_expr) =
  match me.mod_desc with
  | Tmod_structure s -> Some s
  | Tmod_constraint (me, _, _, _) -> unwrap_module me
  | Tmod_functor (_, me) -> unwrap_module me
  | _ -> None

(* Pass 1: register top-level value names (dotted through nested
   modules) and the ~name literals of top-level mutex creations. *)
let rec register_toplevels ctx prefix (str : structure) =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              List.iter
                (fun name ->
                  Hashtbl.replace ctx.toplevels (prefix ^ name) ();
                  match vb.vb_expr.exp_desc with
                  | Texp_apply (f, args) -> (
                      match head_path f with
                      | Some p when last2 ctx (path_parts p) = ("Mutex", "create") -> (
                          match Option.bind (labelled "name" args) string_lit with
                          | Some lit -> Hashtbl.replace ctx.lock_names (prefix ^ name) lit
                          | None -> ())
                      | _ -> ())
                  | _ -> ())
                (binding_names vb))
            vbs
      | Tstr_module mb -> register_module ctx prefix mb
      | Tstr_recmodule mbs -> List.iter (register_module ctx prefix) mbs
      | _ -> ())
    str.str_items

and register_module ctx prefix mb =
  let name = match mb.mb_name.txt with Some n -> n | None -> "_" in
  match unwrap_module mb.mb_expr with
  | Some s -> register_toplevels ctx (prefix ^ name ^ ".") s
  | None -> ()

(* Pass 2: create nodes and walk bodies. *)
let rec collect_items ctx prefix (str : structure) =
  let anon = ref 0 in
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              let name =
                match binding_names vb with
                | n :: _ -> prefix ^ n
                | [] ->
                    incr anon;
                    Printf.sprintf "%s_init%d" prefix !anon
              in
              let node = fresh_node ctx ~name ~root:false ~multi:false (loc_of vb.vb_loc) in
              start_node ctx node name;
              walk_top ctx vb.vb_expr)
            vbs
      | Tstr_eval (e, _) ->
          incr anon;
          let name = Printf.sprintf "%s_eval%d" prefix !anon in
          let node = fresh_node ctx ~name ~root:false ~multi:false (loc_of e.exp_loc) in
          start_node ctx node name;
          walk ctx e
      | Tstr_module mb -> collect_module ctx prefix mb
      | Tstr_recmodule mbs -> List.iter (collect_module ctx prefix) mbs
      | _ -> ())
    str.str_items

and start_node ctx node name =
  ctx.node <- node;
  ctx.host <- name;
  ctx.bound <- Hashtbl.create 16;
  ctx.held <- [];
  ctx.lambda_depth <- 0;
  ctx.loop_depth <- 0;
  ctx.spawn_count <- 0;
  ctx.domain_arg <- false

and collect_module ctx prefix mb =
  let name = match mb.mb_name.txt with Some n -> n | None -> "_" in
  match unwrap_module mb.mb_expr with
  | Some s -> collect_items ctx (prefix ^ name ^ ".") s
  | None -> ()

let collect_unit prog ~known_units ~unit_ (str : structure) =
  let ctx =
    {
      prog;
      unit_;
      known_units;
      toplevels = Hashtbl.create 64;
      lock_names = Hashtbl.create 8;
      node =
        {
          n_unit = unit_;
          n_name = "<none>";
          n_loc = { file = ""; line = 0 };
          n_root = false;
          n_multi = false;
          n_domain = false;
          n_calls = [];
          n_accesses = [];
          n_probes = [];
          n_blocking = [];
          n_lock_sites = [];
          n_acquires = [];
          n_strings = [];
        };
      host = "<top>";
      bound = Hashtbl.create 16;
      held = [];
      lambda_depth = 0;
      loop_depth = 0;
      spawn_count = 0;
      domain_arg = false;
    }
  in
  register_toplevels ctx "" str;
  collect_items ctx "" str

(* Root marks recorded for named functions passed to spawners, applied
   after every unit has been collected. *)
let drain_pending_roots prog =
  Queue.iter
    (fun (u, n, multi) ->
      match find_node prog ~unit_:u ~name:n with
      | Some node ->
          node.n_root <- true;
          if multi then node.n_multi <- true
      | None -> ())
    pending_roots;
  Queue.clear pending_roots;
  Queue.iter
    (fun (u, n) ->
      match find_node prog ~unit_:u ~name:n with
      | Some node ->
          node.n_domain <- true;
          node.n_multi <- true
      | None -> ())
    pending_domain_roots;
  Queue.clear pending_domain_roots
