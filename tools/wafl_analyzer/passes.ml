(* The whole-program analyses over the collected IR:

   1. probe coverage / ownership — families of shared mutable state
      reachable from more than one scheduler root must belong to a unit
      covered by a probe gate;
   2. blocking-while-holding-lock — no call path from a held-lock region
      may reach a blocking primitive;
   3. lock-order cycles — the static acquired-while-held graph must be
      acyclic;
   4. domain-safety — module-level mutable state written from closures
      the worker-domain pool executes must be under a host mutex (or
      Atomic / Domain.DLS, which never register as plain accesses);

   plus the static/dynamic ownership cross-check: every probe_locked
   domain name must have a matching Isolation.register_owner. *)

open Ir

let resolve_call prog (c : call) = find_node prog ~unit_:c.c_unit ~name:c.c_name

let uniq lst =
  let seen = Hashtbl.create 16 in
  List.filter (fun x ->
      if Hashtbl.mem seen x then false
      else (
        Hashtbl.replace seen x ();
        true))
    lst

(* --- reachability ------------------------------------------------------- *)

let reach_from prog root =
  let seen = Hashtbl.create 64 in
  let rec go n =
    let id = node_id n in
    if not (Hashtbl.mem seen id) then (
      Hashtbl.replace seen id ();
      List.iter (fun c -> match resolve_call prog c with Some t -> go t | None -> ()) n.n_calls)
  in
  go root;
  seen

(* --- pass 1: probe coverage --------------------------------------------- *)

(* A "pure probe helper" declares probes and nothing else: no accesses,
   and every program-resolved call it makes targets the exempt substrate
   (or another helper).  Calling one is as good as probing inline. *)
let probe_helpers prog =
  let helpers = Hashtbl.create 8 in
  let is_candidate n = n.n_probes <> [] && n.n_accesses = [] in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun n ->
        if is_candidate n && not (Hashtbl.mem helpers (node_id n)) then
          let ok =
            List.for_all
              (fun c ->
                match resolve_call prog c with
                | None -> true
                | Some t ->
                    List.mem t.n_unit Config.exempt_units || Hashtbl.mem helpers (node_id t))
              n.n_calls
          in
          if ok then (
            Hashtbl.replace helpers (node_id n) ();
            changed := true))
      (nodes_in_order prog)
  done;
  helpers

(* Units covered by a probe gate: a gate (node with a probe declaration,
   or calling a pure probe helper) covers its own unit and every unit it
   directly calls into — the probe declares the scheduling edges for the
   state that code manipulates. *)
let covered_units prog =
  let helpers = probe_helpers prog in
  let covered = Hashtbl.create 32 in
  List.iter
    (fun n ->
      let is_gate =
        n.n_probes <> []
        || List.exists
             (fun c ->
               match resolve_call prog c with
               | Some t -> Hashtbl.mem helpers (node_id t)
               | None -> false)
             n.n_calls
      in
      if is_gate then (
        Hashtbl.replace covered n.n_unit ();
        List.iter
          (fun c ->
            match resolve_call prog c with
            | Some t -> Hashtbl.replace covered t.n_unit ()
            | None -> ())
          n.n_calls))
    (nodes_in_order prog);
  covered

type fam_info = {
  fi_fam : fam;
  mutable fi_sites : (node * access) list;
}

let family_table prog =
  let tbl = Hashtbl.create 128 in
  List.iter
    (fun n ->
      List.iter
        (fun a ->
          let id = fam_id a.a_fam ^ if a.a_fam.f_captured then "$c" else "" in
          let fi =
            match Hashtbl.find_opt tbl id with
            | Some fi -> fi
            | None ->
                let fi = { fi_fam = a.a_fam; fi_sites = [] } in
                Hashtbl.replace tbl id fi;
                fi
          in
          fi.fi_sites <- (n, a) :: fi.fi_sites)
        n.n_accesses)
    (nodes_in_order prog);
  tbl

let pass_coverage prog =
  let covered = covered_units prog in
  let roots = List.filter (fun n -> n.n_root) (nodes_in_order prog) in
  let reach = List.map (fun r -> (r, reach_from prog r)) roots in
  let fams = family_table prog in
  let findings = ref [] in
  let fam_list =
    Hashtbl.fold (fun _ fi acc -> fi :: acc) fams []
    |> List.sort (fun a b -> compare (fam_id a.fi_fam) (fam_id b.fi_fam))
  in
  List.iter
    (fun fi ->
      let f = fi.fi_fam in
      if
        (not (List.mem f.f_unit Config.exempt_units))
        && not (Config.is_container_unit f.f_unit)
      then (
        let touching =
          List.filter
            (fun (_, set) ->
              List.exists (fun (n, _) -> Hashtbl.mem set (node_id n)) fi.fi_sites)
            reach
        in
        (* sharing: a family is contended when reachable from two root
           instances — two distinct roots, or one root spawned
           many times (loop / per-request closure) *)
        let weight =
          List.fold_left (fun acc (r, _) -> acc + if r.n_multi then 2 else 1) 0 touching
        in
        let shared =
          if f.f_captured then List.length touching >= 2 else weight >= 2
        in
        if shared && not (Hashtbl.mem covered f.f_unit) then
          let writes = List.filter (fun (_, a) -> a.a_mode = Write) fi.fi_sites in
          (* read-only state is not a race, but shared state with no
             writer anywhere reachable is config — skip it *)
          if writes <> [] then (
            let site_lines =
              uniq
                (List.map
                   (fun (n, a) ->
                     Printf.sprintf "%s at %s:%d (%s)" (mode_name a.a_mode) a.a_loc.file
                       a.a_loc.line (node_id n))
                   fi.fi_sites)
            in
            let root_lines =
              List.map
                (fun (r, _) ->
                  Printf.sprintf "root %s%s" (node_id r) (if r.n_multi then " (many instances)" else ""))
                touching
            in
            let _, a0 = List.hd writes in
            findings :=
              {
                pass = "probe-coverage";
                loc = a0.a_loc;
                subject = fam_id f;
                message =
                  Printf.sprintf
                    "shared mutable state '%s'%s is reached from %s but unit %s has no \
                     Engine.probe gate"
                    (fam_id f)
                    (if f.f_captured then " (captured by a spawned closure)" else "")
                    (match touching with
                    | [ (r, _) ] -> Printf.sprintf "many instances of root %s" (node_id r)
                    | l -> Printf.sprintf "%d scheduler roots" (List.length l))
                    f.f_unit;
                detail = root_lines @ site_lines;
              }
              :: !findings)))
    fam_list;
  List.rev !findings

(* --- pass 2: blocking while holding a lock ------------------------------- *)

let may_block_set prog =
  let mb = Hashtbl.create 64 in
  List.iter (fun n -> if n.n_blocking <> [] then Hashtbl.replace mb (node_id n) ())
    (nodes_in_order prog);
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun n ->
        if not (Hashtbl.mem mb (node_id n)) then
          if
            List.exists
              (fun c ->
                match resolve_call prog c with
                | Some t -> Hashtbl.mem mb (node_id t)
                | None -> false)
              n.n_calls
          then (
            Hashtbl.replace mb (node_id n) ();
            changed := true))
      (nodes_in_order prog)
  done;
  mb

(* Shortest chain of calls from [n] to a direct blocking primitive. *)
let block_chain prog n =
  let rec go seen n =
    match n.n_blocking with
    | (prim, _) :: _ -> Some [ node_id n ^ " -> " ^ prim ]
    | [] ->
        if List.mem (node_id n) seen then None
        else
          List.find_map
            (fun c ->
              match resolve_call prog c with
              | Some t -> (
                  match go (node_id n :: seen) t with
                  | Some chain -> Some ((node_id n ^ " -> " ^ node_id t) :: chain)
                  | None -> None)
              | None -> None)
            n.n_calls
  in
  match go [] n with Some chain -> chain | None -> []

let pass_blocking prog =
  let mb = may_block_set prog in
  let findings = ref [] in
  List.iter
    (fun n ->
      List.iter
        (fun ls ->
          match ls.ls_target with
          | `Block prim ->
              findings :=
                {
                  pass = "blocking";
                  loc = ls.ls_loc;
                  subject = node_id n;
                  message =
                    Printf.sprintf "%s called while holding %s" prim
                      (String.concat ", " ls.ls_held);
                  detail = [];
                }
                :: !findings
          | `Call (u, fn) -> (
              match find_node prog ~unit_:u ~name:fn with
              | Some t when Hashtbl.mem mb (node_id t) ->
                  findings :=
                    {
                      pass = "blocking";
                      loc = ls.ls_loc;
                      subject = node_id n;
                      message =
                        Printf.sprintf "call to %s.%s while holding %s can block" u fn
                          (String.concat ", " ls.ls_held);
                      detail = block_chain prog t;
                    }
                    :: !findings
              | _ -> ())
          | `Acquire _ -> ())
        (List.rev n.n_lock_sites))
    (nodes_in_order prog);
  List.rev !findings

(* --- pass 3: lock-order cycles ------------------------------------------ *)

(* Lock classes a node may acquire, transitively through its calls. *)
let acquires_star prog =
  let acq = Hashtbl.create 64 in
  let get n = match Hashtbl.find_opt acq (node_id n) with Some s -> s | None -> [] in
  List.iter
    (fun n ->
      if n.n_acquires <> [] then
        Hashtbl.replace acq (node_id n) (uniq (List.map fst n.n_acquires)))
    (nodes_in_order prog);
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun n ->
        let mine = get n in
        let extra =
          List.concat_map
            (fun c -> match resolve_call prog c with Some t -> get t | None -> [])
            n.n_calls
        in
        let merged = uniq (mine @ extra) in
        if List.length merged > List.length mine then (
          Hashtbl.replace acq (node_id n) merged;
          changed := true))
      (nodes_in_order prog)
  done;
  acq

let pass_lock_order prog =
  let acq = acquires_star prog in
  (* edges: held -> acquired *)
  let edges = Hashtbl.create 32 in
  let add_edge a b loc =
    if a <> b then
      let cur = match Hashtbl.find_opt edges a with Some l -> l | None -> [] in
      if not (List.exists (fun (b', _) -> b' = b) cur) then
        Hashtbl.replace edges a ((b, loc) :: cur)
  in
  List.iter
    (fun n ->
      List.iter
        (fun ls ->
          match ls.ls_target with
          | `Acquire cls -> List.iter (fun h -> add_edge h cls ls.ls_loc) ls.ls_held
          | `Call (u, fn) -> (
              match find_node prog ~unit_:u ~name:fn with
              | Some t ->
                  let inner =
                    match Hashtbl.find_opt acq (node_id t) with Some l -> l | None -> []
                  in
                  List.iter
                    (fun cls -> List.iter (fun h -> add_edge h cls ls.ls_loc) ls.ls_held)
                    inner
              | None -> ())
          | `Block _ -> ())
        n.n_lock_sites)
    (nodes_in_order prog);
  (* cycle classes: reach themselves through >= 1 edge *)
  let reachable_from cls =
    let seen = Hashtbl.create 8 in
    let rec go c =
      List.iter
        (fun (d, _) ->
          if not (Hashtbl.mem seen d) then (
            Hashtbl.replace seen d ();
            go d))
        (match Hashtbl.find_opt edges c with Some l -> l | None -> [])
    in
    go cls;
    seen
  in
  let classes = Hashtbl.fold (fun a _ acc -> a :: acc) edges [] |> List.sort compare in
  let reach = List.map (fun c -> (c, reachable_from c)) classes in
  let in_cycle = List.filter (fun (c, r) -> Hashtbl.mem r c) reach in
  (* group mutually-reachable classes into one finding per cycle *)
  let reported = Hashtbl.create 8 in
  List.filter_map
    (fun (c, r) ->
      if Hashtbl.mem reported c then None
      else (
        let members =
          List.filter
            (fun (d, rd) -> Hashtbl.mem r d && Hashtbl.mem rd c)
            in_cycle
          |> List.map fst
        in
        List.iter (fun m -> Hashtbl.replace reported m ()) members;
        let edge_lines =
          List.concat_map
            (fun m ->
              List.filter_map
                (fun (d, loc) ->
                  if List.mem d members then
                    Some (Printf.sprintf "%s -> %s at %s:%d" m d loc.file loc.line)
                  else None)
                (match Hashtbl.find_opt edges m with Some l -> l | None -> []))
            members
        in
        let loc =
          match edge_lines with
          | _ -> (
              match Hashtbl.find_opt edges c with
              | Some ((_, l) :: _) -> l
              | _ -> { file = "<unknown>"; line = 0 })
        in
        Some
          {
            pass = "lock-order";
            loc;
            subject = String.concat " <-> " members;
            message =
              Printf.sprintf "lock-order cycle between { %s }: potential deadlock"
                (String.concat ", " members);
            detail = edge_lines;
          }))
    in_cycle

(* --- ownership cross-check ---------------------------------------------- *)

(* String literals a node (transitively) mentions — used to resolve
   domain-name generator functions like Aggregate.agg_map_domain, whose
   bodies are sprintf format literals.  Names are normalized by cutting
   at the first format directive, so "agg.map/%d" matches the
   register_owner call that used the same generator. *)
let literals_star prog =
  let memo = Hashtbl.create 64 in
  let rec go seen n =
    let id = node_id n in
    match Hashtbl.find_opt memo id with
    | Some l -> l
    | None ->
        if List.mem id seen then []
        else
          let l =
            n.n_strings
            @ List.concat_map
                (fun c ->
                  match resolve_call prog c with
                  | Some t -> go (id :: seen) t
                  | None -> [])
                n.n_calls
          in
          let l = uniq l in
          Hashtbl.replace memo id l;
          l
  in
  fun n -> go [] n

let norm_domain s = match String.index_opt s '%' with Some i -> String.sub s 0 i | None -> s

let domain_names prog probes =
  let lits = literals_star prog in
  List.concat_map
    (fun p ->
      match (p.p_literal, p.p_gen) with
      | Some l, _ -> [ (norm_domain l, p.p_loc) ]
      | None, Some (u, fn) -> (
          match find_node prog ~unit_:u ~name:fn with
          | Some t -> List.map (fun l -> (norm_domain l, p.p_loc)) (lits t)
          | None -> [])
      | None, None -> [])
    probes

(* Exposed for --verbose / tests: the two sides of the cross-check. *)
let ownership_sets prog =
  let locked =
    List.concat_map
      (fun n -> List.filter (fun p -> p.p_kind = "probe_locked") n.n_probes)
      (nodes_in_order prog)
  in
  ( uniq (List.map fst (domain_names prog locked)),
    uniq (List.map fst (domain_names prog prog.owners_declared)) )

let pass_ownership prog =
  let locked =
    List.concat_map
      (fun n -> List.filter (fun p -> p.p_kind = "probe_locked") n.n_probes)
      (nodes_in_order prog)
  in
  let probed = domain_names prog locked in
  let owned = List.map fst (domain_names prog prog.owners_declared) in
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun (name, loc) ->
      if name = "" || Hashtbl.mem seen name then None
      else (
        Hashtbl.replace seen name ();
        if List.exists (fun o -> o = name) owned then None
        else
          Some
            {
              pass = "ownership";
              loc;
              subject = name;
              message =
                Printf.sprintf
                  "probe_locked domain '%s' has no matching Isolation.register_owner: \
                   static ownership cannot be cross-checked"
                  name;
              detail = [];
            }))
    probed

(* --- pass 5: domain-safety ---------------------------------------------- *)

(* Closures handed to the worker-domain pool (Wafl_util.Pool.run / map /
   team_run, Exp.par_map) execute concurrently on OCaml 5 domains —
   real parallelism, unlike cooperatively-scheduled fibers.  A write to
   module-level mutable state (or to a local captured across the pool
   boundary) from code reachable from such a closure is a data race and
   a determinism hazard unless a host mutex is held at the site.
   Acceptable disciplines the collector sees through:
   - [Mutex]: the write site carries the held lock class ([a_held]), or
     its node acquires some lock (the coarse fallback covers
     [Mutex.protect]-style bodies the sequence tracker cannot scope);
   - [Atomic] / [Domain.DLS]: their operations never register as plain
     family accesses, so guarded state is naturally silent;
   - per-domain ownership: per-run records allocated inside the closure
     are not module-level families ([f_global] is false) and are
     skipped — except the fields in [Config.shared_fields], whose one
     record every worker shares (the experiment context's run table).
   Reads are not flagged: immutable per-run settings built before
   fan-out and only read inside the pool (an [Exp.ctx]'s sanitize /
   telemetry / domains, a spec's [Fault.chaos] plan, ...) are the
   sanctioned configuration pattern.  Module-level mutable state in lib/
   and bin/ is a wafl_lint error. *)
let pass_domain prog =
  let droots = List.filter (fun n -> n.n_domain) (nodes_in_order prog) in
  let reach = List.map (fun r -> (r, reach_from prog r)) droots in
  let fams = family_table prog in
  let fam_list =
    Hashtbl.fold (fun _ fi acc -> fi :: acc) fams []
    |> List.sort (fun a b -> compare (fam_id a.fi_fam) (fam_id b.fi_fam))
  in
  List.filter_map
    (fun fi ->
      let f = fi.fi_fam in
      if
        List.mem f.f_unit Config.exempt_units
        || Config.is_container_unit f.f_unit
        || not
             (f.f_global || f.f_captured
             || List.mem (f.f_unit, f.f_name) Config.shared_fields)
      then None
      else
        let in_reach n =
          List.exists (fun (_, set) -> Hashtbl.mem set (node_id n)) reach
        in
        let unguarded =
          List.filter
            (fun (n, a) ->
              a.a_mode = Write && a.a_held = [] && n.n_acquires = [] && in_reach n)
            fi.fi_sites
        in
        match unguarded with
        | [] -> None
        | (_, a0) :: _ ->
            let roots_hit =
              List.filter
                (fun (_, set) ->
                  List.exists (fun (n, _) -> Hashtbl.mem set (node_id n)) unguarded)
                reach
              |> List.map (fun (r, _) -> "domain root " ^ node_id r)
            in
            let site_lines =
              uniq
                (List.map
                   (fun (n, a) ->
                     Printf.sprintf "unguarded write at %s:%d (%s)" a.a_loc.file a.a_loc.line
                       (node_id n))
                   unguarded)
            in
            Some
              {
                pass = "domain-safety";
                loc = a0.a_loc;
                subject = fam_id f;
                message =
                  Printf.sprintf
                    "mutable state '%s'%s is written from a pool-executed closure with no \
                     mutex held: concurrent worker domains race on it"
                    (fam_id f)
                    (if f.f_captured then " (captured across the domain boundary)" else "");
                detail = uniq roots_hit @ site_lines;
              })
    fam_list

let run_all prog =
  pass_coverage prog @ pass_blocking prog @ pass_lock_order prog @ pass_ownership prog
  @ pass_domain prog
