(* Causal request tracing (DESIGN.md §4.10).

   Two halves.  The first is the blessed propagation API: thin wrappers
   over the causal half of {!Trace} that instrumented code threads
   through every asynchronous handoff — capture a context where work is
   produced (a message post, a cleaner work item, a RAID submit), restore
   it where the work is consumed.  wafl_lint rejects direct use of the
   underlying [Trace] primitives outside lib/obs, so every causal edge in
   a trace comes from this one audited surface.

   The second half is the offline analyzer behind `wafl_sim analyze`: it
   parses an exported trace, pairs the flow events into causal edges,
   extracts the critical path through each checkpoint (the longest
   dependency chain, walked backward through wake/post edges), attributes
   critical-path time to resource classes (serial allocator, cleaner
   pool, Waffinity partition classes, RAID), and decomposes per-write
   end-to-end latency into queue wait and service per stage — the
   paper's "which stage bounds this CP" question, answered per trace. *)

(* --- propagation API ----------------------------------------------------- *)

type handoff = Trace.handoff

let no_handoff = Trace.no_handoff
let capture = Trace.capture
let restore = Trace.restore
let with_root = Trace.with_root
let fiber_reset = Trace.fiber_reset
let enabled = Trace.causal

(* --- analyzer: trace model ----------------------------------------------- *)

type span = {
  sp_tid : int;
  sp_ts : float;
  sp_dur : float;
  sp_cat : string;
  sp_name : string;
  sp_ctx : int;  (* causal context ("ctx" arg); 0 = none *)
  sp_wait : float;  (* queue wait ("wait_us" arg); negative = absent *)
}

type edge = {
  ed_id : int;
  ed_name : string;  (* handoff kind: "post <kind>", "wake", "spawn", ... *)
  ed_src_tid : int;
  ed_src_ts : float;
  ed_dst_tid : int;
  ed_dst_ts : float;
}

type segment = { sg_class : string; sg_from : float; sg_until : float }

type cp_path = {
  p_ts : float;
  p_dur : float;
  p_tid : int;
  p_generation : float;  (* -1 when the CP span carried no generation *)
  p_coverage : float;  (* walked fraction of the CP interval, 0..1 *)
  p_segments : segment list;  (* chronological *)
  p_classes : (string * float) list;  (* class -> critical-path us, descending *)
}

type op_stat = {
  o_name : string;
  o_count : int;
  o_mean : float;
  o_p50 : float;
  o_p99 : float;
}

type stage_stat = {
  st_name : string;
  st_count : int;
  st_service_p50 : float;
  st_service_p99 : float;
  st_wait_p50 : float;  (* negative when the stage records no queue wait *)
  st_wait_p99 : float;
}

type analysis = {
  a_events : int;
  a_dropped : int;
  a_causal : bool;
  a_spans : int;
  a_edges : int;
  a_unmatched_starts : int;  (* 's' with no 'f': work still queued at export *)
  a_orphan_finishes : int;  (* 'f' with no 's': its start was dropped from the ring *)
  a_acyclic : bool;  (* every edge runs forward in virtual time *)
  a_cps : cp_path list;  (* chronological *)
  a_bottlenecks : (string * float) list;  (* summed over all CPs, descending *)
  a_ops : op_stat list;
  a_stages : stage_stat list;
}

(* --- parsing ------------------------------------------------------------- *)

let num_member key j = match Json.member key j with Some (Json.Num f) -> Some f | _ -> None
let str_member key j = match Json.member key j with Some (Json.Str s) -> Some s | _ -> None

let arg_num key j =
  match Json.member "args" j with Some args -> num_member key args | None -> None

(* Resource classes for bottleneck attribution.  The serial allocator is
   anything running under the aggregate-wide allocation affinities
   (Serial / Aggregate_vbn) or the in-line CP cleaning phase of the
   serialized infrastructure; the Waffinity partition classes keep their
   kind names so the report shows which class saturates. *)
let class_of_span ~cat ~name =
  match cat with
  | "cleaner" -> "cleaner pool"
  | "raid" | "tetris" -> "raid"
  | "flash" ->
      (* GC runs and the host stalls they cause are one resource (the
         device's background cleaning); page programs are the media. *)
      if name = "flash gc" || name = "flash stall" then "flash gc" else "flash media"
  | "op" -> "client"
  | "cp" ->
      if name = "CP" then "cp orchestration"
      else if name = "cp cleaning" then "serial allocator"
      else name
  | "sched" -> (
      match String.length name > 4 && String.sub name 0 4 = "msg " with
      | false -> "sched"
      | true -> (
          match String.sub name 4 (String.length name - 4) with
          | "serial" | "aggregate_vbn" -> "serial allocator"
          | kind -> "waffinity " ^ kind))
  | c -> c

let queue_class_of_edge name =
  if String.length name > 5 && String.sub name 0 5 = "post " then
    "queue " ^ String.sub name 5 (String.length name - 5)
  else "queue " ^ name

(* For the bottleneck table, a queue-wait segment is attributed to the
   resource it queues behind: a saturated resource's bottleneck shows up
   mostly as queueing (the serialized allocator's cap manifests almost
   entirely as messages waiting on the Serial/Aggregate_vbn affinities).
   Segments keep their raw "queue <kind>" labels, and the stage table
   still separates wait from service. *)
let resource_of_class c =
  if String.length c > 6 && String.sub c 0 6 = "queue " then
    match String.sub c 6 (String.length c - 6) with
    | "clean" -> "cleaner pool"
    | "raid" -> "raid"
    | "serial" | "aggregate_vbn" -> "serial allocator"
    | kind -> "waffinity " ^ kind
  else c

(* --- percentiles over raw sample lists (offline; exact) ------------------ *)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let idx = int_of_float (ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) idx))

(* --- critical-path extraction -------------------------------------------- *)

module Imap = Map.Make (Int)
module Smap = Map.Make (String)

(* Accumulate [d] µs on [cls]. *)
let add_time cls d acc = Smap.update cls (fun r -> Some (Option.value ~default:0.0 r +. d)) acc

(* Per-class totals, largest first (ties by name). *)
let by_time_desc totals =
  List.sort
    (fun (ka, va) (kb, vb) -> if va <> vb then compare vb va else String.compare ka kb)
    (Smap.bindings totals)

(* Walk backward from the end of [cp] following, at each point, the most
   recent causal edge into the current fiber: run intervals attribute to
   the innermost enclosing span, post edges contribute their queue wait,
   wake edges jump (at one instant) to the fiber that enabled progress.
   Per-fiber edge cursors only move backward, so the walk terminates even
   on degenerate same-instant edge chains. *)
let critical_path ~spans ~edges cp =
  let t0 = cp.sp_ts and t1 = cp.sp_ts +. cp.sp_dur in
  let eps = 1e-9 in
  (* Window-filtered per-tid indices. *)
  let spans_by : (int, span list ref) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun sp ->
      if sp.sp_ts < t1 +. eps && sp.sp_ts +. sp.sp_dur > t0 -. eps && sp.sp_cat <> "op" then begin
        match Hashtbl.find_opt spans_by sp.sp_tid with
        | Some l -> l := sp :: !l
        | None -> Hashtbl.add spans_by sp.sp_tid (ref [ sp ])
      end)
    spans;
  (* Input is dst_ts-ascending; walking it backward and prepending leaves
     each tid's edges ascending too. *)
  let edges_by =
    let lists = ref Imap.empty in
    for i = Array.length edges - 1 downto 0 do
      let e = edges.(i) in
      if e.ed_dst_ts >= t0 -. eps && e.ed_dst_ts <= t1 +. eps then
        lists := Imap.update e.ed_dst_tid (fun l -> Some (e :: Option.value ~default:[] l)) !lists
    done;
    Imap.map Array.of_list !lists
  in
  let cursors : (int, int) Hashtbl.t = Hashtbl.create 64 in
  (* Latest unconsumed edge into [tid] with dst_ts <= t. *)
  let find_edge tid t =
    match Imap.find_opt tid edges_by with
    | None -> None
    | Some arr ->
        let limit =
          match Hashtbl.find_opt cursors tid with Some c -> c | None -> Array.length arr
        in
        let rec down i =
          if i < 0 then None
          else if arr.(i).ed_dst_ts <= t +. eps then begin
            Hashtbl.replace cursors tid i;
            Some arr.(i)
          end
          else down (i - 1)
        in
        down (limit - 1)
  in
  (* Innermost span on [tid] covering instant [p]: latest start wins,
     shortest duration on start ties (nested spans share their open ts
     when opened back-to-back). *)
  let innermost tid p =
    match Hashtbl.find_opt spans_by tid with
    | None -> None
    | Some { contents = l } ->
        List.fold_left
          (fun best sp ->
            if sp.sp_ts <= p +. eps && sp.sp_ts +. sp.sp_dur >= p -. eps then
              match best with
              | None -> Some sp
              | Some b ->
                  if
                    sp.sp_ts > b.sp_ts +. eps
                    || (Float.abs (sp.sp_ts -. b.sp_ts) <= eps && sp.sp_dur < b.sp_dur)
                  then Some sp
                  else best
            else best)
          None l
  in
  (* Attribute the run interval (b, t] on [tid], splitting at span
     boundaries so each piece lands on its innermost span. *)
  let attribute tid b t acc =
    if t -. b <= eps then acc
    else begin
      let points = ref [ b; t ] in
      (match Hashtbl.find_opt spans_by tid with
      | None -> ()
      | Some { contents = l } ->
          List.iter
            (fun sp ->
              let s = sp.sp_ts and e = sp.sp_ts +. sp.sp_dur in
              if s > b +. eps && s < t -. eps then points := s :: !points;
              if e > b +. eps && e < t -. eps then points := e :: !points)
            l);
      let pts = List.sort_uniq compare !points in
      let rec pairs acc = function
        | x :: (y :: _ as rest) ->
            let mid = (x +. y) /. 2.0 in
            let cls =
              match innermost tid mid with
              | Some sp -> class_of_span ~cat:sp.sp_cat ~name:sp.sp_name
              | None -> "untracked"
            in
            pairs ({ sg_class = cls; sg_from = x; sg_until = y } :: acc) rest
        | _ -> acc
      in
      (* [pairs] prepends left-to-right, yielding newest-first — the same
         orientation as the backward walk's accumulator. *)
      pairs [] pts @ acc
    end
  in
  let max_iters = Array.length edges + Array.length spans + 16 in
  let segments = ref [] in
  let tid = ref cp.sp_tid and t = ref t1 and iters = ref 0 and stopped = ref false in
  while (not !stopped) && !t > t0 +. eps && !iters <= max_iters do
    incr iters;
    match find_edge !tid !t with
    | None ->
        segments := attribute !tid t0 !t !segments;
        t := t0;
        stopped := true
    | Some e ->
        let b = max t0 e.ed_dst_ts in
        segments := attribute !tid b !t !segments;
        if e.ed_dst_ts <= t0 +. eps then begin
          t := t0;
          stopped := true
        end
        else begin
          if e.ed_dst_ts -. e.ed_src_ts > eps then
            segments :=
              {
                sg_class = queue_class_of_edge e.ed_name;
                sg_from = max t0 e.ed_src_ts;
                sg_until = e.ed_dst_ts;
              }
              :: !segments;
          tid := e.ed_src_tid;
          t := max t0 e.ed_src_ts
        end
  done;
  let walked_to = !t in
  let segs = !segments in
  let classes =
    List.fold_left
      (fun acc sg ->
        let d = sg.sg_until -. sg.sg_from in
        if d > 0.0 then add_time (resource_of_class sg.sg_class) d acc else acc)
      Smap.empty segs
    |> by_time_desc
  in
  {
    p_ts = cp.sp_ts;
    p_dur = cp.sp_dur;
    p_tid = cp.sp_tid;
    p_generation = (if cp.sp_wait >= 0.0 then cp.sp_wait else -1.0);
    p_coverage = (if cp.sp_dur <= 0.0 then 1.0 else (t1 -. walked_to) /. cp.sp_dur);
    p_segments = segs;
    p_classes = classes;
  }

(* --- whole-trace analysis ------------------------------------------------ *)

let analyze doc =
  match Json.member "traceEvents" doc with
  | Some (Json.Arr events) ->
      let dropped, causal =
        match Json.member "otherData" doc with
        | Some od ->
            ( (match num_member "dropped" od with Some d -> int_of_float d | None -> 0),
              match Json.member "causal" od with Some (Json.Bool b) -> b | _ -> false )
        | None -> (0, false)
      in
      let spans = ref [] and n_spans = ref 0 in
      let starts : (int, string * int * float) Hashtbl.t = Hashtbl.create 1024 in
      let edges = ref [] and n_edges = ref 0 and orphans = ref 0 in
      List.iter
        (fun j ->
          match str_member "ph" j with
          | Some "X" ->
              let get d k = Option.value ~default:d (num_member k j) in
              incr n_spans;
              spans :=
                {
                  sp_tid = int_of_float (get (-1.0) "tid");
                  sp_ts = get 0.0 "ts";
                  sp_dur = get 0.0 "dur";
                  sp_cat = Option.value ~default:"" (str_member "cat" j);
                  sp_name = Option.value ~default:"" (str_member "name" j);
                  sp_ctx =
                    (match arg_num "ctx" j with Some c -> int_of_float c | None -> 0);
                  sp_wait =
                    (match arg_num "wait_us" j with
                    | Some w -> w
                    | None -> (
                        (* CP spans reuse the wait slot for their generation. *)
                        match arg_num "generation" j with Some g -> g | None -> -1.0));
                }
                :: !spans
          | Some "s" -> (
              match (num_member "id" j, num_member "ts" j, num_member "tid" j) with
              | Some id, Some ts, Some tid ->
                  Hashtbl.replace starts (int_of_float id)
                    (Option.value ~default:"" (str_member "name" j), int_of_float tid, ts)
              | _ -> ())
          | Some "f" -> (
              match (num_member "id" j, num_member "ts" j, num_member "tid" j) with
              | Some id, Some ts, Some tid -> (
                  let id = int_of_float id in
                  match Hashtbl.find_opt starts id with
                  | Some (name, src_tid, src_ts) ->
                      Hashtbl.remove starts id;
                      incr n_edges;
                      edges :=
                        {
                          ed_id = id;
                          ed_name = name;
                          ed_src_tid = src_tid;
                          ed_src_ts = src_ts;
                          ed_dst_tid = int_of_float tid;
                          ed_dst_ts = ts;
                        }
                        :: !edges
                  | None -> incr orphans)
              | _ -> ())
          | _ -> ())
        events;
      let span_arr = Array.of_list (List.rev !spans) in
      Array.sort (fun a b -> compare a.sp_ts b.sp_ts) span_arr;
      let edge_arr = Array.of_list (List.rev !edges) in
      Array.sort (fun a b -> compare a.ed_dst_ts b.ed_dst_ts) edge_arr;
      let acyclic =
        Array.for_all (fun e -> e.ed_src_ts <= e.ed_dst_ts +. 1e-9) edge_arr
      in
      (* Critical path per CP span. *)
      let cps =
        Array.to_list span_arr
        |> List.filter (fun sp -> sp.sp_cat = "cp" && sp.sp_name = "CP")
        |> List.map (critical_path ~spans:span_arr ~edges:edge_arr)
      in
      let bottlenecks =
        List.fold_left
          (fun acc p -> List.fold_left (fun acc (cls, us) -> add_time cls us acc) acc p.p_classes)
          Smap.empty cps
        |> by_time_desc
      in
      (* Per-op end-to-end latency (cat "op" spans, grouped by name). *)
      let op_tbl =
        Array.fold_left
          (fun acc sp ->
            if sp.sp_cat = "op" then
              Smap.update sp.sp_name (fun l -> Some (sp.sp_dur :: Option.value ~default:[] l)) acc
            else acc)
          Smap.empty span_arr
      in
      let stats_of name l =
        let arr = Array.of_list l in
        Array.sort compare arr;
        let n = Array.length arr in
        {
          o_name = name;
          o_count = n;
          o_mean =
            (if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 arr /. float_of_int n);
          o_p50 = percentile arr 0.50;
          o_p99 = percentile arr 0.99;
        }
      in
      let ops = Smap.bindings op_tbl |> List.map (fun (name, l) -> stats_of name l) in
      (* Per-stage queue-wait vs service decomposition. *)
      let stage_tbl =
        Array.fold_left
          (fun acc sp ->
            match sp.sp_cat with
            | "sched" | "cleaner" | "raid" | "tetris" | "flash" ->
                Smap.update sp.sp_name
                  (fun cell ->
                    let svc, wait = Option.value ~default:([], []) cell in
                    Some
                      ( sp.sp_dur :: svc,
                        if sp.sp_wait >= 0.0 then sp.sp_wait :: wait else wait ))
                  acc
            | _ -> acc)
          Smap.empty span_arr
      in
      let stages =
        Smap.bindings stage_tbl
        |> List.map (fun (name, (svc, wait)) ->
               let s = Array.of_list svc and w = Array.of_list wait in
               Array.sort compare s;
               Array.sort compare w;
               {
                 st_name = name;
                 st_count = Array.length s;
                 st_service_p50 = percentile s 0.50;
                 st_service_p99 = percentile s 0.99;
                 st_wait_p50 = (if Array.length w = 0 then -1.0 else percentile w 0.50);
                 st_wait_p99 = (if Array.length w = 0 then -1.0 else percentile w 0.99);
               })
      in
      Ok
        {
          a_events = List.length events;
          a_dropped = dropped;
          a_causal = causal;
          a_spans = !n_spans;
          a_edges = !n_edges;
          a_unmatched_starts = Hashtbl.length starts;
          a_orphan_finishes = !orphans;
          a_acyclic = acyclic;
          a_cps = cps;
          a_bottlenecks = bottlenecks;
          a_ops = ops;
          a_stages = stages;
        }
  | _ -> Error "not a trace: no traceEvents array"

let analyze_string body =
  match Json.of_string body with Ok doc -> analyze doc | Error e -> Error e

(* --- reports ------------------------------------------------------------- *)

let dominant p = match p.p_classes with [] -> ("(empty)", 0.0) | (c, us) :: _ -> (c, us)

let render a =
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "trace: %d events, %d spans, %d causal edges (%d still-queued starts, %d orphan finishes)\n"
    a.a_events a.a_spans a.a_edges a.a_unmatched_starts a.a_orphan_finishes;
  pf "dropped events: %d\n" a.a_dropped;
  if a.a_dropped > 0 || a.a_orphan_finishes > 0 then
    pf
      "WARNING: trace incomplete (%d dropped, %d orphan finishes) — critical paths and \
       decompositions may be wrong; re-run with a larger ring capacity\n"
      a.a_dropped a.a_orphan_finishes;
  if not a.a_causal then
    pf "NOTE: trace was not recorded in causal mode (no --causal); edges come only from \
        engine-level wake/spawn hooks and will be empty\n";
  pf "acyclic: %s\n" (if a.a_acyclic then "yes" else "NO — malformed trace");
  pf "\ncheckpoints: %d\n" (List.length a.a_cps);
  List.iteri
    (fun i p ->
      let cls, us = dominant p in
      pf
        "critical path: CP #%d @ %.0f us: duration %.0f us, %d segments, coverage %.1f%%, \
         dominant: %s (%.1f%%)\n"
        (i + 1) p.p_ts p.p_dur (List.length p.p_segments) (100.0 *. p.p_coverage)
        cls
        (if p.p_dur > 0.0 then 100.0 *. us /. p.p_dur else 0.0))
    a.a_cps;
  if a.a_bottlenecks <> [] then begin
    let total = List.fold_left (fun acc (_, us) -> acc +. us) 0.0 a.a_bottlenecks in
    let t =
      Wafl_util.Table.create
        ~headers:[ "bottleneck (all CPs)"; "critical-path us"; "share" ]
    in
    List.iter
      (fun (cls, us) ->
        Wafl_util.Table.add_row t
          [
            cls;
            Printf.sprintf "%.1f" us;
            Printf.sprintf "%.1f%%" (if total > 0.0 then 100.0 *. us /. total else 0.0);
          ])
      a.a_bottlenecks;
    pf "\n%s" (Wafl_util.Table.render t)
  end;
  if a.a_ops <> [] then begin
    let t =
      Wafl_util.Table.create
        ~headers:[ "op (end-to-end)"; "count"; "mean us"; "p50 us"; "p99 us" ]
    in
    List.iter
      (fun o ->
        Wafl_util.Table.add_row t
          [
            o.o_name;
            string_of_int o.o_count;
            Printf.sprintf "%.1f" o.o_mean;
            Printf.sprintf "%.1f" o.o_p50;
            Printf.sprintf "%.1f" o.o_p99;
          ])
      a.a_ops;
    pf "\n%s" (Wafl_util.Table.render t)
  end;
  if a.a_stages <> [] then begin
    let t =
      Wafl_util.Table.create
        ~headers:[ "stage"; "count"; "service p50/p99 us"; "queue wait p50/p99 us" ]
    in
    List.iter
      (fun s ->
        Wafl_util.Table.add_row t
          [
            s.st_name;
            string_of_int s.st_count;
            Printf.sprintf "%.1f / %.1f" s.st_service_p50 s.st_service_p99;
            (if s.st_wait_p50 < 0.0 then "-"
             else Printf.sprintf "%.1f / %.1f" s.st_wait_p50 s.st_wait_p99);
          ])
      a.a_stages;
    pf "\n%s" (Wafl_util.Table.render t)
  end;
  Buffer.contents buf

let to_json a =
  let open Json in
  let share_list l =
    let total = List.fold_left (fun acc (_, us) -> acc +. us) 0.0 l in
    Arr
      (List.map
         (fun (cls, us) ->
           Obj
             [
               ("class", Str cls);
               ("us", Num us);
               ("share", Num (if total > 0.0 then us /. total else 0.0));
             ])
         l)
  in
  Obj
    [
      ("events", Num (float_of_int a.a_events));
      ("dropped", Num (float_of_int a.a_dropped));
      ("causal", Bool a.a_causal);
      ("spans", Num (float_of_int a.a_spans));
      ("edges", Num (float_of_int a.a_edges));
      ("unmatched_starts", Num (float_of_int a.a_unmatched_starts));
      ("orphan_finishes", Num (float_of_int a.a_orphan_finishes));
      ("acyclic", Bool a.a_acyclic);
      ( "cps",
        Arr
          (List.map
             (fun p ->
               Obj
                 [
                   ("ts", Num p.p_ts);
                   ("dur_us", Num p.p_dur);
                   ("generation", Num p.p_generation);
                   ("coverage", Num p.p_coverage);
                   ("segments", Num (float_of_int (List.length p.p_segments)));
                   ("classes", share_list p.p_classes);
                 ])
             a.a_cps) );
      ("bottlenecks", share_list a.a_bottlenecks);
      ( "ops",
        Arr
          (List.map
             (fun o ->
               Obj
                 [
                   ("op", Str o.o_name);
                   ("count", Num (float_of_int o.o_count));
                   ("mean_us", Num o.o_mean);
                   ("p50_us", Num o.o_p50);
                   ("p99_us", Num o.o_p99);
                 ])
             a.a_ops) );
      ( "stages",
        Arr
          (List.map
             (fun s ->
               Obj
                 [
                   ("stage", Str s.st_name);
                   ("count", Num (float_of_int s.st_count));
                   ("service_p50_us", Num s.st_service_p50);
                   ("service_p99_us", Num s.st_service_p99);
                   ("wait_p50_us", Num s.st_wait_p50);
                   ("wait_p99_us", Num s.st_wait_p99);
                 ])
             a.a_stages) );
    ]
