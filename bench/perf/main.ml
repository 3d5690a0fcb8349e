(* The repository benchmark: end-to-end and per-layer performance of the
   simulator on four fixed workloads (README.md in this directory has the
   catalogue and the reasons behind it).

     dune exec bench/perf/main.exe -- [--seed N] [--reps R] [--out FILE]
         all four workloads, R interleaved rounds, a traced round and
         the micro-benchmarks; prints every metric and a JSON document
     dune exec bench/perf/main.exe -- --workload W --seconds S --trace 0|1
         one workload, rounds repeated for S seconds; the last stdout
         line is {"correct", "attempted", "failed", "metrics"} with the
         end-to-end metrics (--trace 0) or the per-layer ones (--trace 1)
     dune exec bench/perf/main.exe -- --smoke
         every workload once with 50 ms windows, as a quick self-check;
         the runtest rule in this directory's dune file runs it

   Every run happens in a child process (this executable re-run with
   --child), one at a time and single-domain, so each gets a fresh heap
   and its own peak RSS.  Run from the repository root: the metric names
   and units are checked against BENCHMARK.json there. *)

module J = Wafl_obs.Json

(* --- statistics --------------------------------------------------------- *)

let sorted l = List.sort compare l

let median l =
  let a = Array.of_list (sorted l) in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartiles as Python's statistics.quantiles(n=4)
   computes them (the default "exclusive" method). *)
let quartiles l =
  let a = Array.of_list (sorted l) in
  let n = Array.length a in
  if n < 2 then (median l, median l)
  else
    let q i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = (i * (n + 1)) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

(* --- metric catalogue ---------------------------------------------------- *)

(* Every metric the benchmark reports, with its unit, in output order.
   BENCHMARK.json must declare exactly these. *)
let end_to_end_units =
  [
    ("host_us_per_op", "us");
    ("setup_s", "s");
    ("peak_rss_mb", "MiB");
    ("sim_ops_per_s", "ops/s");
    ("sim_write_p50_us", "us");
    ("sim_write_p999_us", "us");
    ("sim_op_p999_us", "us");
    ("sim_walloc_cores", "cores");
    ("sim_waf", "ratio");
  ]

let micro_units = List.map (fun (name, _) -> (name, "ns")) Micro.all

let exact_layer_units =
  [
    ("sim.dispatches_per_op", "count");
    ("waffinity.msgs_per_op", "count");
    ("waffinity.wait_us_p99.stripe", "us");
    ("waffinity.wait_us_p99.vol_range", "us");
    ("waffinity.wait_us_p99.agg_range", "us");
    ("core.cleaner_cores", "cores");
    ("core.get_waits", "count");
    ("core.infra_cores", "cores");
    ("core.metafile_blocks_per_op", "count");
    ("core.infra_msgs_per_op", "count");
    ("core.cp_duration_us_p99", "us");
    ("core.b2b_cps", "count");
    ("core.avg_active_cleaners", "count");
    ("fs.nvlog_stall_us_per_write", "us");
    ("fs.throttle_us_p99", "us");
    ("storage.full_stripe_frac", "fraction");
    ("storage.blocks_per_io", "count");
    ("storage.read_contiguity", "blocks");
    ("storage.io_service_us_p99", "us");
    ("storage.io_wait_us_p99", "us");
    ("flash.gc_stall_us_per_write", "us");
    ("flash.erases_per_host_page", "ratio");
    ("obs.health_events", "count");
    ("workload.backlog_frac", "fraction");
  ]

let host_layer_units =
  ("sim.dispatches_per_host_s", "1/s")
  :: List.map (fun l -> (l ^ ".host_self_frac", "fraction")) Child.layers
  @ [
      ("runtime.minor_words_per_op", "count");
      ("runtime.major_gcs", "count");
      ("runtime.unattributed_frac", "fraction");
      ("trace.overhead_frac", "fraction");
      ("noise.calib_ms", "ms");
    ]

let per_layer_units = exact_layer_units @ host_layer_units @ micro_units

(* Reads BENCHMARK.json: the workloads and metrics it declares must be
   exactly the ones this benchmark produces, with the same units, or the
   run fails instead of reporting.  Returns each end-to-end metric's
   bound. *)
let read_declaration () =
  match In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all |> J.of_string with
  | exception Sys_error e -> Error [ "cannot read BENCHMARK.json (run from the repository root): " ^ e ]
  | Error e -> Error [ "BENCHMARK.json: " ^ e ]
  | Ok doc -> (
      let entries key = match J.member key doc with Some (J.Arr l) -> l | _ -> [] in
      let field name e = Option.value (Option.bind (J.member name e) J.to_str) ~default:"" in
      let declared key = List.map (fun e -> (field "name" e, field "unit" e)) (entries key) in
      let compare_set what declared produced =
        if sorted declared = sorted produced then []
        else
          let only l l' =
            List.filter (fun x -> not (List.mem x l')) l
            |> List.map (fun (n, u) -> if u = "" then n else n ^ " [" ^ u ^ "]")
            |> String.concat ", "
          in
          [
            Printf.sprintf "%s differ from BENCHMARK.json: declared only: %s; produced only: %s" what
              (only declared produced) (only produced declared);
          ]
      in
      match
        compare_set "workloads" (declared "workloads")
          (List.map (fun w -> (w.Workloads.name, "")) Workloads.all)
        @ compare_set "end-to-end metrics" (declared "end_to_end") end_to_end_units
        @ compare_set "per-layer metrics" (declared "per_layer") per_layer_units
      with
      | [] ->
          Ok
            (List.map
               (fun e ->
                 (field "name" e, Option.value (Option.bind (J.member "bound" e) J.to_float) ~default:0.0))
               (entries "end_to_end"))
      | errs -> Error errs)

(* --- child processes ----------------------------------------------------- *)

(* A fixed loop of pseudo-random reads over a 16 MiB array (~70 ms on a
   quiet 2-vCPU cloud VM, 3x that while neighbours load memory), timed
   before every child run so that host-speed episodes show up next to
   the numbers they distort.  The simulator is
   bound by memory latency, and neighbours on a shared host slow memory
   far more than arithmetic, so a register-only loop would miss them.
   It runs here rather than in the child to keep the array out of the
   child's peak RSS. *)
let calib_words = lazy (Array.init (1 lsl 21) Fun.id)

let calibrate () =
  let words = Lazy.force calib_words in
  let t0 = Unix.gettimeofday () in
  let idx = ref 0 and sum = ref 0 in
  for _ = 1 to 15_000_000 do
    idx := ((!idx * 1103515245) + 12345) land ((1 lsl 21) - 1);
    sum := !sum + Array.unsafe_get words !idx
  done;
  ignore (Sys.opaque_identity !sum);
  (Unix.gettimeofday () -. t0) *. 1000.0

let run_child args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: "--child" :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> (
      let last = List.rev (String.split_on_char '\n' (String.trim out)) |> List.hd in
      match J.of_string last with Ok j -> j | Error e -> failwith ("child output: " ^ e))
  | _ -> failwith ("child run failed: " ^ String.concat " " args)

let get name j =
  match Option.bind (J.member name j) J.to_float with
  | Some v -> v
  | None -> failwith ("child output lacks " ^ name)

let floats name j =
  match J.member name j with
  | Some (J.Obj l) -> List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (J.to_float v)) l
  | _ -> []

(* --- measurement plan ----------------------------------------------------- *)

type acc = { w : Workloads.t; mutable fulls : J.t list; mutable traced : J.t option }

let rotate r l =
  let n = List.length l in
  List.init n (fun i -> List.nth l ((i + r) mod n))

(* Rounds visit every workload in an order rotated each round, so a
   slow-host episode is spread across workloads.  [stop] ends the plan
   after a number of rounds or once the time budget is spent; the
   optional traced round and the micro-benchmarks follow. *)
let measure ~workloads ~seed ~smoke ~stop ~trace ~micro_quota =
  let accs = List.map (fun w -> { w; fulls = []; traced = None }) workloads in
  let child kind a =
    let calib_ms = calibrate () in
    match
      run_child
        ([ kind; "--workload"; a.w.Workloads.name; "--seed"; string_of_int seed ]
        @ if smoke then [ "--smoke" ] else [])
    with
    | J.Obj fields -> J.Obj (("calib_ms", J.Num calib_ms) :: fields)
    | _ -> failwith "child output is not an object"
  in
  let t0 = Unix.gettimeofday () in
  let more r =
    match stop with
    | `Rounds n -> r < n
    | `Seconds s -> r = 0 || Unix.gettimeofday () -. t0 < s
  in
  let rec rounds r =
    if more r then begin
      List.iter (fun a -> a.fulls <- child "full" a :: a.fulls) (rotate r accs);
      rounds (r + 1)
    end
  in
  rounds 0;
  let micro =
    if trace then begin
      List.iter (fun a -> a.traced <- Some (child "traced" a)) accs;
      floats "micro" (run_child [ "micro"; "--quota"; string_of_float micro_quota ])
    end
    else []
  in
  (accs, micro)

(* --- per-workload report -------------------------------------------------- *)

type report = {
  name : string;
  end_to_end : (string * float) list;
  host_raw : (string * float list) list;  (** repetitions behind each host metric *)
  per_layer : (string * float) list;
  attempted : int;
  failed : int;
  failures : string list;  (** output checks that failed *)
}

(* The catalogue's metrics, in its order, from the values computed. *)
let pick units values = List.map (fun (name, _) -> (name, List.assoc name values)) units

let report ~micro a =
  let fulls = List.rev a.fulls in
  let first = List.hd fulls in
  let exact = floats "exact" first in
  let ex name = List.assoc name exact in
  let host_raw =
    [
      ("host_us_per_op", List.map (fun j -> (get "wall_s" j -. get "setup_s" j) /. get "ops" j *. 1e6) fulls);
      ("setup_s", List.map (get "setup_s") fulls);
      ("peak_rss_mb", List.map (get "rss_mb") fulls);
    ]
  in
  let walls = List.map (get "wall_s") fulls in
  let runs = fulls @ Option.to_list a.traced in
  let sum name = List.fold_left (fun s j -> s + int_of_float (get name j)) 0 runs in
  let digest j = J.member "digest" j in
  let checks =
    [
      ( "every repetition and the traced run give the same simulated results",
        List.for_all (fun j -> floats "exact" j = exact && digest j = digest first) runs );
      ( "every repetition allocates the same (runtime counts repeat)",
        List.for_all
          (fun j -> get "minor_words" j = get "minor_words" first && get "major_gcs" j = get "major_gcs" first)
          fulls );
      ("no race reports", sum "races" = 0);
      ("no write refused on an exhausted NVLog", sum "nvlog_exhausted" = 0);
      ("no health events", ex "obs.health_events" = 0.0);
      ("open-loop backlog under 1% of offered", ex "workload.backlog_frac" < 0.01);
      ("flash_gc write amplification above 1", a.w.Workloads.name <> "flash_gc" || ex "sim_waf" > 1.0);
    ]
  in
  (* Host noise only ever slows a repetition down, and on a shared host it
     drifts over minutes, so the host times report the fastest
     repetition.  Peak RSS repeats to a few pages for a seed and reports
     the median. *)
  let host_value (name, raw) =
    (name, if name = "peak_rss_mb" then median raw else List.fold_left Float.min Float.infinity raw)
  in
  let end_to_end = pick end_to_end_units (List.map host_value host_raw @ exact) in
  let per_layer, trace_checks =
    match a.traced with
    | None -> ([], [])
    | Some t ->
        let samples = floats "samples" t in
        let total = List.fold_left (fun s (_, n) -> s +. n) 0.0 samples in
        let share l = Option.value (List.assoc_opt l samples) ~default:0.0 /. total in
        let calib = List.map (get "calib_ms") runs in
        ( pick per_layer_units
            (exact
            @ [ ("sim.dispatches_per_host_s", get "context_switches" first /. median walls) ]
            @ List.map (fun l -> (l ^ ".host_self_frac", share l)) Child.layers
            @ [
                ("runtime.minor_words_per_op", get "minor_words" first /. get "ops" first);
                ("runtime.major_gcs", get "major_gcs" first);
                ("runtime.unattributed_frac", share "unattributed");
                ("trace.overhead_frac", (get "wall_s" t /. median walls) -. 1.0);
                ("noise.calib_ms", median calib);
              ]
            @ micro),
          [ ("at least 95% of host samples land on a named library", total > 0.0 && share "unattributed" <= 0.05) ] )
  in
  let checks =
    checks @ trace_checks
    @ [
        ( "every metric is a finite number",
          List.for_all (fun (_, v) -> Float.is_finite v) (end_to_end @ per_layer) );
      ]
  in
  {
    name = a.w.Workloads.name;
    end_to_end;
    host_raw;
    per_layer;
    attempted = sum "offered";
    failed = sum "failed";
    failures = List.filter_map (fun (what, ok) -> if ok then None else Some what) checks;
  }

(* --- output ----------------------------------------------------------------- *)

let metric_obj units (name, v) =
  (name, J.Obj [ ("value", J.Num v); ("unit", J.Str (List.assoc name units)) ])

(* The interquartile range of repetitions as a share of their median. *)
let iqr_share raw =
  let q1, q3 = quartiles raw in
  (q3 -. q1) /. median raw

let print_table ~bounds r =
  Printf.printf "\n%s\n" r.name;
  let line units (name, v) =
    let spread =
      match List.assoc_opt name r.host_raw with
      | Some raw ->
          Printf.sprintf "  (IQR %.1f%% of median, bound %.0f%%; runs %s)"
            (100.0 *. iqr_share raw)
            (100.0 *. List.assoc name bounds)
            (String.concat " " (List.map (Printf.sprintf "%.4g") raw))
      | None -> ""
    in
    Printf.printf "  %-36s %14.6g %-8s%s\n" name v (List.assoc name units) spread
  in
  List.iter (line end_to_end_units) r.end_to_end;
  List.iter (line per_layer_units) r.per_layer;
  List.iter (fun f -> Printf.printf "  CHECK FAILED: %s\n" f) r.failures

(* The full-mode document: per workload, every metric with its unit, and
   for host metrics the raw repetitions, their median and quartiles, and
   [unresolved] when the interquartile range exceeds the metric's bound. *)
let document ~bounds ~seed ~reps reports =
  let host name raw =
    let q1, q3 = quartiles raw in
    [
      ("raw", J.Arr (List.map (fun v -> J.Num v) raw));
      ("median", J.Num (median raw));
      ("q1", J.Num q1);
      ("q3", J.Num q3);
      ("unresolved", J.Bool (iqr_share raw > List.assoc name bounds));
    ]
  in
  let workload r =
    let e2e =
      List.map
        (fun (name, v) ->
          let base = [ ("value", J.Num v); ("unit", J.Str (List.assoc name end_to_end_units)) ] in
          match List.assoc_opt name r.host_raw with
          | Some raw -> (name, J.Obj (base @ host name raw))
          | None -> (name, J.Obj base))
        r.end_to_end
    in
    ( r.name,
      J.Obj
        [
          ("attempted", Jsonw.int r.attempted);
          ("failed", Jsonw.int r.failed);
          ("checks_failed", J.Arr (List.map (fun s -> J.Str s) r.failures));
          ("end_to_end", J.Obj e2e);
          ("per_layer", J.Obj (List.map (metric_obj per_layer_units) r.per_layer));
        ] )
  in
  J.Obj
    [
      ("schema", J.Str "wafl-perf/1");
      ("seed", Jsonw.int seed);
      ("reps", Jsonw.int reps);
      ("workloads", J.Obj (List.map workload reports));
    ]

(* --- command line ------------------------------------------------------------ *)

let child_main kind ~workload ~seed ~smoke ~quota =
  match (kind, workload) with
  | "micro", _ ->
      let ns = Micro.run ~quota in
      print_endline
        (Jsonw.to_string (J.Obj [ ("micro", J.Obj (List.map (fun (k, v) -> (k, J.Num v)) ns)) ]))
  | "full", Some w -> Child.run Child.Full w ~seed ~smoke
  | "traced", Some w -> Child.run Child.Traced w ~seed ~smoke
  | _ -> failwith ("bad child run: " ^ kind)

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 0.0 and trace = ref "0" in
  let reps = ref 5 and out = ref "" and smoke = ref false in
  let child = ref "" and quota = ref 0.5 in
  let usage = "main.exe [--workload W --seconds S --trace 0|1] [--seed N] [--reps R] [--out FILE] [--smoke]" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W run one workload (seq_write, rand_write, oltp_open, flash_gc)");
      ("--seed", Arg.Set_int seed, "N workload seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S repeat rounds for S seconds instead of --reps rounds");
      ( "--trace",
        Arg.Symbol ([ "0"; "1" ], ( := ) trace),
        " with --workload: report end-to-end (0) or per-layer (1) metrics" );
      ("--reps", Arg.Set_int reps, "R rounds when --seconds is not given (default 5)");
      ("--out", Arg.Set_string out, "FILE also write the JSON document to FILE");
      ("--smoke", Arg.Set smoke, " every workload once with 50 ms windows");
      ("--child", Arg.Set_string child, "KIND internal: run one measured child");
      ("--quota", Arg.Set_float quota, "SECONDS internal: micro-benchmark quota");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !child <> "" then
    child_main !child
      ~workload:(if !workload = "" then None else Workloads.find !workload)
      ~seed:!seed ~smoke:!smoke ~quota:!quota
  else begin
    let bounds =
      match read_declaration () with
      | Ok bounds -> bounds
      | Error errs ->
          List.iter prerr_endline errs;
          exit 2
    in
    let workloads =
      if !workload = "" then Workloads.all
      else
        match Workloads.find !workload with
        | Some w -> [ w ]
        | None ->
            prerr_endline ("unknown workload " ^ !workload);
            exit 2
    in
    let single = !workload <> "" in
    let trace = (not single) || !trace = "1" in
    let stop =
      if !smoke then `Rounds 1 else if !seconds > 0.0 then `Seconds !seconds else `Rounds !reps
    in
    let micro_quota = if !smoke then 0.02 else 0.5 in
    let accs, micro = measure ~workloads ~seed:!seed ~smoke:!smoke ~stop ~trace ~micro_quota in
    let reports = List.map (report ~micro) accs in
    List.iter (print_table ~bounds) reports;
    let failures = List.concat_map (fun r -> List.map (fun f -> r.name ^ ": " ^ f) r.failures) reports in
    List.iter (fun f -> prerr_endline ("check failed: " ^ f)) failures;
    let result =
      if single then
        let r = List.hd reports in
        J.Obj
          [
            ("correct", J.Bool (failures = []));
            ("attempted", Jsonw.int r.attempted);
            ("failed", Jsonw.int r.failed);
            ( "metrics",
              J.Obj
                (if trace then List.map (metric_obj per_layer_units) r.per_layer
                 else List.map (metric_obj end_to_end_units) r.end_to_end) );
          ]
      else document ~bounds ~seed:!seed ~reps:(List.length (List.hd accs).fulls) reports
    in
    let text = Jsonw.to_string result in
    if !out <> "" then Out_channel.with_open_bin !out (fun oc -> output_string oc (text ^ "\n"));
    print_endline text;
    if failures <> [] then exit 1
  end
