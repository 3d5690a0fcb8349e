(* Command-line front end: run any paper experiment or an ad-hoc
   configuration of the simulated storage server. *)

open Cmdliner
open Wafl_workload
module H = Wafl_harness

let scale_arg =
  let doc = "Scale factor for measurement windows and working sets (1.0 = paper scale)." in
  Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"FACTOR" ~doc)

let domains_arg =
  let doc =
    "Worker-domain count for host-parallel execution of independent runs (experiment rows, \
     crash seeds, partition windows). Results are byte-identical at any value; the default \
     comes from WAFL_DOMAINS or the host core count. Tracing forces serial execution."
  in
  Arg.(
    value
    & opt int (Wafl_util.Pool.default_domains ())
    & info [ "domains" ] ~docv:"N" ~doc)

let sanitize_arg =
  let doc =
    "Run under the race detector and affinity-isolation checker. Any report aborts with a \
     diagnostic; results are bit-identical to an unsanitized run."
  in
  Arg.(value & flag & info [ "sanitize" ] ~doc)

let trace_arg =
  let doc =
    "Attach the virtual-time tracer to every run of the experiment and write the last \
     run's Chrome trace-event JSON to $(docv). Tracing never changes results."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let causal_arg =
  let doc =
    "Like $(b,--trace), but additionally record causal edges across every asynchronous \
     handoff and write the last run's trace to $(docv), ready for $(b,wafl_sim analyze) \
     (or Perfetto, where the edges render as flow arrows). Takes precedence over \
     $(b,--trace). Recording never changes results."
  in
  Arg.(value & opt (some string) None & info [ "causal" ] ~docv:"FILE" ~doc)

(* Satellite of the causal work: a trace that overflowed its ring is
   silently missing its oldest events, which breaks DAG connectivity —
   always tell the operator. *)
let report_drops t =
  let dropped = Wafl_obs.Trace.dropped t in
  if dropped > 0 then
    Printf.printf
      "WARNING: %d events dropped from the trace ring; the trace is incomplete (raise the \
       ring capacity or shorten the run)\n"
      dropped

(* Write [t]'s Chrome trace to [path], then print the command's summary
   ([summary retained dropped]) and the drop warning. *)
let write_trace t path summary =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Wafl_obs.Trace.export_string t));
  summary (Wafl_obs.Trace.event_count t) (Wafl_obs.Trace.dropped t);
  report_drops t

let read_file path =
  try Ok (In_channel.with_open_bin path In_channel.input_all) with Sys_error e -> Error e

let run_experiment name ~doc entries =
  let action scale sanitize domains trace_out causal_out =
    let last = ref Wafl_obs.Trace.disabled in
    let out =
      match (causal_out, trace_out) with
      | Some path, _ -> Some (path, true)
      | None, Some path -> Some (path, false)
      | None, None -> None
    in
    let obs =
      Option.map
        (fun (_, causal) eng ->
          let t = Wafl_obs.Trace.create ~causal eng in
          last := t;
          t)
        out
    in
    (* The tracer factory keeps the last started run's tracer, which only
       means something when rows start in order: tracing runs serially. *)
    let domains = if out = None then domains else 1 in
    let ctx = H.Exp.context ~scale ~domains ~sanitize ?obs () in
    let shapes = List.concat_map (fun e -> fst (e.H.Suite.run ctx)) entries in
    (match out with
    | None -> ()
    | Some (path, causal) ->
        write_trace !last path
          (Printf.printf "wrote %s (the experiment's last run%s): %d events retained, %d dropped\n"
             path
             (if causal then ", with causal edges" else "")));
    H.Exp.print_shapes shapes;
    if List.for_all snd shapes then `Ok () else `Error (false, "some shape checks missed")
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(ret (const action $ scale_arg $ sanitize_arg $ domains_arg $ trace_arg $ causal_arg))

(* One subcommand per registry group (fig4 ... flash; ablation runs both
   ablation entries), plus [all]: one context, so a spec several figures
   share runs once. *)
let experiment_cmds =
  List.map
    (fun name ->
      let entries = H.Suite.select name in
      let titles = String.concat "; " (List.map (fun e -> e.H.Suite.title) entries) in
      run_experiment name ~doc:(Printf.sprintf "Reproduce %s." titles) entries)
    H.Suite.commands
  @ [ run_experiment "all" ~doc:"Reproduce every experiment, in suite order." H.Suite.entries ]

(* --- ad-hoc run --- *)

let workload_conv =
  let parse = function
    | "seq" -> Ok `Seq
    | "rand" -> Ok `Rand
    | "oltp" -> Ok `Oltp
    | "nfs" -> Ok `Nfs
    | s -> Error (`Msg (Printf.sprintf "unknown workload %S (seq|rand|oltp|nfs)" s))
  in
  let print ppf w =
    Format.pp_print_string ppf
      (match w with `Seq -> "seq" | `Rand -> "rand" | `Oltp -> "oltp" | `Nfs -> "nfs")
  in
  Arg.conv (parse, print)

(* The one workload table of [run], [trace] and [top --live]; only the
   per-client file size differs between them. *)
let workload_of ~file_blocks = function
  | `Seq -> Driver.Seq_write { file_blocks }
  | `Rand -> Driver.Rand_write { file_blocks }
  | `Oltp -> Driver.Oltp { file_blocks; read_fraction = 0.67 }
  | `Nfs -> Driver.Nfs_mix { files_per_client = 48; file_blocks = 64 }

(* Building a spec from flags (e.g. [Arrival.population]) and [Driver.run]
   reject malformed values with [Invalid_argument]; from the command line
   that is a usage error, not an internal one. *)
let with_run spec k =
  match Driver.run (spec ()) with r -> k r | exception Invalid_argument msg -> `Error (false, msg)

let custom_run workload cleaners serial_infra dynamic clients cores measure_s think seed
    sanitize causal_out =
  let cfg =
    H.Exp.wa_config ~cleaners
      ~max_cleaners:(max cleaners 4)
      ~parallel_infra:(not serial_infra) ~dynamic ()
  in
  let tracer = ref Wafl_obs.Trace.disabled in
  let spec () =
    {
      Driver.default_spec with
      Driver.workload = workload_of ~file_blocks:16384 workload;
      cfg;
      clients;
      cores;
      think_time = think;
      measure = measure_s *. 1_000_000.0;
      seed;
      sanitize;
      obs =
        (match causal_out with
        | None -> Driver.default_spec.Driver.obs
        | Some _ ->
            fun eng ->
              let t = Wafl_obs.Trace.create ~causal:true eng in
              tracer := t;
              t);
    }
  in
  with_run spec @@ fun r ->
  (match causal_out with
  | None -> ()
  | Some path ->
      write_trace !tracer path (Printf.printf "wrote %s: %d events retained, %d dropped\n" path));
  Printf.printf "ops            %d\n" r.Driver.ops;
  Printf.printf "throughput     %.0f ops/s (%.0f per client)\n" r.Driver.throughput
    r.Driver.throughput_per_client;
  Printf.printf "latency        mean %.1f us, p50 %.1f, p95 %.1f, p99 %.1f\n"
    (Wafl_util.Histogram.mean r.Driver.latency)
    (Wafl_util.Histogram.percentile r.Driver.latency 50.0)
    (Wafl_util.Histogram.percentile r.Driver.latency 95.0)
    (Wafl_util.Histogram.percentile r.Driver.latency 99.0);
  Printf.printf "cores          client %.2f, cleaner %.2f, infra %.2f, cp %.2f (util %.2f)\n"
    r.Driver.cores_client r.Driver.cores_cleaner r.Driver.cores_infra r.Driver.cores_cp
    r.Driver.utilization;
  Printf.printf "CPs            %d (%d buffers cleaned, %d cleaner msgs, %d infra msgs)\n"
    r.Driver.cps_completed r.Driver.buffers_cleaned r.Driver.cleaner_messages
    r.Driver.infra_messages;
  Printf.printf "allocation     %d VBNs allocated, %d freed, %d metafile blocks touched\n"
    r.Driver.vbns_allocated r.Driver.vbns_freed r.Driver.metafile_blocks_touched;
  Printf.printf "stripes        %d full, %d partial\n" r.Driver.full_stripes
    r.Driver.partial_stripes;
  if sanitize then Printf.printf "sanitizer      %d race reports\n" r.Driver.races;
  `Ok ()

(* --- traced run --- *)

let traced_run workload cleaners clients cores measure_s seed out sample_interval top causal =
  let cfg = H.Exp.wa_config ~cleaners ~max_cleaners:(max cleaners 4) () in
  let tracer = ref Wafl_obs.Trace.disabled in
  let spec () =
    {
      Driver.default_spec with
      Driver.workload = workload_of ~file_blocks:16384 workload;
      cfg;
      clients;
      cores;
      measure = measure_s *. 1_000_000.0;
      seed;
      obs =
        (fun eng ->
          let t = Wafl_obs.Trace.create ~sample_interval ~causal eng in
          tracer := t;
          t);
    }
  in
  with_run spec @@ fun r ->
  let t = !tracer in
  write_trace t out (Printf.printf "wrote %s: %d events retained, %d dropped\n" out);
  Printf.printf "run: %d ops, %.0f ops/s, %d CPs\n\n" r.Driver.ops r.Driver.throughput
    r.Driver.cps_completed;
  print_string (Wafl_obs.Trace.profile_table ~top t);
  print_newline ();
  let eng = Option.get (Wafl_obs.Trace.engine t) in
  print_string
    (Wafl_fs.Report.perf ~elapsed:(Wafl_sim.Engine.now eng) (Wafl_sim.Engine.metrics eng));
  `Ok ()

let trace_cmd =
  let doc =
    "Run one configuration with the tracer attached and export a Chrome trace-event JSON \
     file (load it in Perfetto or chrome://tracing): CP phase spans, per-affinity message \
     spans, RAID I/O spans, cleaner work spans and a counter/gauge timeseries — all in \
     virtual time.  Also prints the virtual-CPU profile and an operator performance \
     summary.  Deterministic: the same seed produces a byte-identical trace."
  in
  let workload =
    Arg.(value & opt workload_conv `Seq & info [ "workload"; "w" ] ~docv:"KIND" ~doc:"Workload: seq, rand, oltp or nfs.")
  in
  let cleaners = Arg.(value & opt int 4 & info [ "cleaners" ] ~docv:"N" ~doc:"Cleaner threads.") in
  let clients = Arg.(value & opt int 40 & info [ "clients" ] ~docv:"N" ~doc:"Closed-loop clients.") in
  let cores = Arg.(value & opt int 20 & info [ "cores" ] ~docv:"N" ~doc:"Simulated cores.") in
  let measure = Arg.(value & opt float 0.5 & info [ "measure" ] ~docv:"SECONDS" ~doc:"Virtual measurement window.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"RNG seed.") in
  let out = Arg.(value & opt string "trace.json" & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Trace output file.") in
  let sample_interval = Arg.(value & opt float 10_000.0 & info [ "sample-interval" ] ~docv:"US" ~doc:"Counter/gauge sampling period in virtual us (0 disables the timeseries).") in
  let top = Arg.(value & opt int 20 & info [ "top" ] ~docv:"N" ~doc:"Rows in the virtual-CPU profile table.") in
  let causal = Arg.(value & flag & info [ "causal" ] ~doc:"Also record causal edges (flow events) across every asynchronous handoff, for $(b,wafl_sim analyze).") in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      ret
        (const traced_run $ workload $ cleaners $ clients $ cores $ measure $ seed $ out
       $ sample_interval $ top $ causal))

(* --- trace analysis --- *)

let analyze_run file json =
  match read_file file with
  | Error e -> `Error (false, e)
  | Ok s -> (
      match Wafl_obs.Causal.analyze_string s with
      | Error e -> `Error (false, Printf.sprintf "%s: %s" file e)
      | Ok a ->
          if json then print_endline (Wafl_obs.Json.to_string (Wafl_obs.Causal.to_json a))
          else print_string (Wafl_obs.Causal.render a);
          `Ok ())

let analyze_cmd =
  let doc =
    "Analyze a causal trace (written by $(b,--causal)): end-to-end latency decomposition \
     per operation and pipeline stage, each checkpoint's critical path extracted from the \
     causal DAG, and a bottleneck table attributing critical-path time to resource classes \
     (serial allocator, cleaner pool, Waffinity partition classes, RAID). Warns when the \
     trace ring dropped events, since a truncated trace under-reports."
  in
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc:"Trace JSON file.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the analysis as JSON.") in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(ret (const analyze_run $ file $ json))

(* --- randomized crash-point harness --- *)

let crash_run seeds first_seed ops fbn_space horizon verbose sanitize overload flash domains =
  let outcomes =
    H.Crash.run_seeds ~ops ~fbn_space ~horizon ~sanitize ~overload ~flash
      ~domains:(max 1 domains) ~first_seed ~count:seeds ()
  in
  if verbose then
    List.iter
      (fun (o : H.Crash.outcome) ->
        Printf.printf
          "seed %-5d crash %8.0fus %-14s cps %-3d acked %-5d torn %d degraded %b lost %d%s\n"
          o.H.Crash.seed o.H.Crash.crash_time o.H.Crash.cp_phase o.H.Crash.cps_before_crash
          o.H.Crash.acked o.H.Crash.torn o.H.Crash.disk_failure_active o.H.Crash.lost
          (match o.H.Crash.fsck_failure with Some m -> " fsck:" ^ m | None -> ""))
      outcomes;
  print_string (H.Crash.summarize outcomes);
  let races = List.fold_left (fun acc o -> acc + o.H.Crash.races) 0 outcomes in
  if sanitize then Printf.printf "  sanitizer: %d race reports\n" races;
  if not (List.for_all H.Crash.passed outcomes) then
    `Error (false, "some seeds lost acknowledged writes or failed fsck")
  else if races > 0 then `Error (false, "race detector reported under --sanitize")
  else `Ok ()

let crash_cmd =
  let doc =
    "Randomized crash-point testing: for each seed, run a write workload under a seeded \
     fault plan (media errors, transient I/O failures, disk loss, torn NVRAM tail), crash \
     at a plan-chosen virtual instant, recover and verify that fsck passes and no \
     acknowledged write was lost."
  in
  let seeds = Arg.(value & opt int 50 & info [ "seeds" ] ~docv:"N" ~doc:"Number of seeds to run.") in
  let first_seed = Arg.(value & opt int 1 & info [ "first-seed" ] ~docv:"N" ~doc:"First seed (seeds are consecutive).") in
  let ops = Arg.(value & opt int 100_000 & info [ "ops" ] ~docv:"N" ~doc:"Cap on client operations per seed.") in
  let fbn_space = Arg.(value & opt int 700 & info [ "fbn-space" ] ~docv:"N" ~doc:"Distinct file blocks written per file.") in
  let horizon = Arg.(value & opt float 60_000.0 & info [ "horizon" ] ~docv:"US" ~doc:"Virtual-time horizon; the crash lands in its back 70%.") in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print one line per seed.") in
  let overload = Arg.(value & flag & info [ "overload" ] ~doc:"Drive each seed with a bursty open-loop arrival plan against a small watermarked NVRAM, so crash points land inside throttled and back-to-back-CP windows.") in
  let flash = Arg.(value & flag & info [ "flash" ] ~doc:"Attach a nearly-full NAND/FTL media model to every RAID group, so crashes routinely land mid-GC-cycle; the volatile L2P table is rebuilt on recovery and acked-write read-back must still hold.") in
  Cmd.v (Cmd.info "crash" ~doc)
    Term.(
      ret
        (const crash_run $ seeds $ first_seed $ ops $ fbn_space $ horizon $ verbose
       $ sanitize_arg $ overload $ flash $ domains_arg))

(* --- fleet shard on the partitioned engine --- *)

let shard_run scale shards domains seed =
  let shards = max 1 shards and domains = max 1 domains in
  let o = H.Shard.run ~scale ~shards ~domains ~seed () in
  H.Shard.print ~shards ~domains o;
  let shapes = H.Shard.shapes o in
  H.Exp.print_shapes shapes;
  if List.for_all snd shapes then `Ok () else `Error (false, "some shape checks missed")

let shard_cmd =
  let doc =
    "Fleet-sharded run on the conservative-lookahead partitioned engine: $(b,--shards) \
     independent aggregate stacks advance on independently-clocked engine partitions \
     (concurrently across $(b,--domains) worker domains), coupled through a global \
     CP-epoch barrier and fleet telemetry messages. Output is byte-identical at any \
     domain count; the printed digest makes that easy to check."
  in
  let shards = Arg.(value & opt int 4 & info [ "shards" ] ~docv:"N" ~doc:"Aggregate shards (engine partitions).") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"RNG seed.") in
  Cmd.v (Cmd.info "shard" ~doc)
    Term.(ret (const shard_run $ scale_arg $ shards $ domains_arg $ seed))

(* --- operator top view --------------------------------------------------- *)

let top_run file live json out workload clients volumes cores measure_s seed window_ms windows
    top_k open_loop inject_b2b think_us cp_ms =
  let emit snap events =
    let s =
      if json then Wafl_obs.Json.to_string (Wafl_obs.Top.to_json snap events) ^ "\n"
      else Wafl_obs.Top.render ~top_k snap events
    in
    match out with
    | None ->
        print_string s;
        `Ok ()
    | Some path ->
        let oc = open_out path in
        output_string oc s;
        close_out oc;
        Printf.printf "wrote %s\n" path;
        `Ok ()
  in
  match (file, live) with
  | Some path, _ -> (
      match read_file path with
      | Error e -> `Error (false, e)
      | Ok s -> (
          match Wafl_obs.Json.of_string s with
          | Error e -> `Error (false, Printf.sprintf "%s: %s" path e)
          | Ok j -> (
              match Wafl_obs.Top.of_json j with
              | snap, events -> emit snap events
              | exception Invalid_argument e -> `Error (false, Printf.sprintf "%s: %s" path e))))
  | None, false ->
      `Error (true, "pass a wafl-top snapshot file, or --live to run one configuration")
  | None, true ->
      let rcfg0 =
        {
          Wafl_obs.Rollup.default_config with
          Wafl_obs.Rollup.window_us = window_ms *. 1000.0;
          windows;
        }
      in
      (* Size the per-volume budget to the requested ring rather than
         rejecting long-ring requests. *)
      let rcfg =
        {
          rcfg0 with
          Wafl_obs.Rollup.vol_budget_bytes =
            max Wafl_obs.Rollup.default_config.Wafl_obs.Rollup.vol_budget_bytes
              ((windows + 1) * Wafl_obs.Rollup.vol_window_bytes);
        }
      in
      let spec () =
        {
          Driver.default_spec with
          Driver.workload = workload_of ~file_blocks:4096 workload;
          clients;
          volumes;
          cores;
          think_time = think_us;
          cfg =
            (match cp_ms with
            | None -> Driver.default_spec.Driver.cfg
            | Some ms ->
                { Driver.default_spec.Driver.cfg with
                  Wafl_core.Walloc.cp_timer = Some (ms *. 1000.0) });
          measure = measure_s *. 1_000_000.0;
          seed;
          chaos = { Wafl_storage.Fault.no_chaos with force_b2b = inject_b2b };
          telemetry = Some { Driver.rollup = rcfg; rules = Wafl_obs.Health.default_rules };
          open_loop =
            (match open_loop with
            | None -> None
            | Some total_rate ->
                Some
                  {
                    Driver.arrivals = Arrival.population ~n:clients ~total_rate ~alpha:1.0;
                    qos = Some Wafl_qos.Qos.default_config;
                  });
        }
      in
      with_run spec @@ fun r ->
      match r.Driver.telemetry with
      | None -> `Error (false, "driver returned no telemetry")
      | Some tr ->
          if tr.Driver.tr_health_dropped > 0 then
            Printf.eprintf "WARNING: %d health events dropped (log capacity)\n"
              tr.Driver.tr_health_dropped;
          emit tr.Driver.tr_snapshot tr.Driver.tr_events

let top_cmd =
  let doc =
    "Operator fleet view over telemetry rollups: per-window CP/latency/shed timeline, \
     top-K volumes by shed, write p99 and backlog, and the health-event feed.  Reads a \
     snapshot written by $(b,--json)/$(b,--out), or runs one configuration with $(b,--live) \
     (telemetry is observe-only: the run is bit-identical with it on)."
  in
  let file = Arg.(value & pos 0 (some string) None & info [] ~docv:"SNAPSHOT" ~doc:"A wafl-top/1 JSON snapshot to render.") in
  let live = Arg.(value & flag & info [ "live" ] ~doc:"Run one configuration and render its telemetry.") in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the wafl-top/1 JSON snapshot instead of tables.") in
  let out = Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write output to $(docv) instead of stdout.") in
  let workload = Arg.(value & opt workload_conv `Seq & info [ "workload"; "w" ] ~docv:"KIND" ~doc:"Workload: seq, rand, oltp or nfs.") in
  let clients = Arg.(value & opt int 40 & info [ "clients" ] ~docv:"N" ~doc:"Clients (open loop: tenants).") in
  let volumes = Arg.(value & opt int 8 & info [ "volumes" ] ~docv:"N" ~doc:"FlexVols.") in
  let cores = Arg.(value & opt int 20 & info [ "cores" ] ~docv:"N" ~doc:"Simulated cores.") in
  let measure = Arg.(value & opt float 1.0 & info [ "measure" ] ~docv:"SECONDS" ~doc:"Virtual measurement window.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"RNG seed.") in
  let window = Arg.(value & opt float 100.0 & info [ "window" ] ~docv:"MS" ~doc:"Rollup window width, virtual milliseconds.") in
  let windows = Arg.(value & opt int 8 & info [ "windows" ] ~docv:"N" ~doc:"Sealed windows retained.") in
  let top_k = Arg.(value & opt int 5 & info [ "top" ] ~docv:"K" ~doc:"Rows in the top-volume tables.") in
  let open_loop = Arg.(value & opt (some float) None & info [ "open-loop" ] ~docv:"RATE" ~doc:"Open-loop mode: total offered ops/s over a Zipf tenant population behind per-volume QoS.") in
  let inject_b2b = Arg.(value & flag & info [ "inject-b2b" ] ~doc:"Chaos hook: book every CP as back-to-back so the watchdog's B2B-streak rule fires (accounting only; results unchanged).") in
  let think = Arg.(value & opt float 0.0 & info [ "think" ] ~docv:"US" ~doc:"Mean client think time in virtual microseconds (0 = closed loop at full tilt).") in
  let cp_ms = Arg.(value & opt (some float) None & info [ "cp-ms" ] ~docv:"MS" ~doc:"Override the CP timer period in virtual milliseconds.") in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(
      ret
        (const top_run $ file $ live $ json $ out $ workload $ clients $ volumes $ cores
       $ measure $ seed $ window $ windows $ top_k $ open_loop $ inject_b2b $ think $ cp_ms))

let run_cmd =
  let doc = "Run one ad-hoc configuration and print its measurements." in
  let workload =
    Arg.(value & opt workload_conv `Seq & info [ "workload"; "w" ] ~docv:"KIND" ~doc:"Workload: seq, rand, oltp or nfs.")
  in
  let cleaners = Arg.(value & opt int 4 & info [ "cleaners" ] ~docv:"N" ~doc:"Cleaner threads.") in
  let serial_infra = Arg.(value & flag & info [ "serial-infra" ] ~doc:"Serialize the infrastructure.") in
  let dynamic = Arg.(value & flag & info [ "dynamic" ] ~doc:"Enable dynamic cleaner-thread tuning.") in
  let clients = Arg.(value & opt int 40 & info [ "clients" ] ~docv:"N" ~doc:"Closed-loop clients.") in
  let cores = Arg.(value & opt int 20 & info [ "cores" ] ~docv:"N" ~doc:"Simulated cores.") in
  let measure = Arg.(value & opt float 1.0 & info [ "measure" ] ~docv:"SECONDS" ~doc:"Virtual measurement window.") in
  let think = Arg.(value & opt float 0.0 & info [ "think" ] ~docv:"US" ~doc:"Mean client think time (virtual us).") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"RNG seed.") in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      ret
        (const custom_run $ workload $ cleaners $ serial_infra $ dynamic $ clients $ cores
       $ measure $ think $ seed $ sanitize_arg $ causal_arg))

let () =
  let doc = "WAFL White Alligator write-allocation reproduction" in
  let info = Cmd.info "wafl_sim" ~version:"1.0.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          (experiment_cmds @ [ run_cmd; trace_cmd; analyze_cmd; crash_cmd; shard_cmd; top_cmd ])))
