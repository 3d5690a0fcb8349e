(* One measured run, executed in a child process so that it gets a fresh
   heap and its own peak RSS.  The child prints one JSON object on
   stdout; the parent aggregates repetitions.

   A run reads the system only from outside, through three public
   channels: the Driver.result fields (measure window), the run's
   Metrics registry (whole run, setup included) and the Engine.t handed
   to the spec's [obs] factory. *)

module D = Wafl_workload.Driver
module H = Wafl_util.Histogram
module M = Wafl_obs.Metrics
module J = Wafl_obs.Json
module Engine = Wafl_sim.Engine

type kind = Full | Traced

(* VmHWM: the process's peak resident set, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* --- percentiles ------------------------------------------------------- *)

(* Histogram.quantile returns a bucket's centre, so at 20 buckets/decade
   a percentile moves in ~12% steps and can read the same for every seed.
   This estimate interpolates the rank inside the bucket (as Prometheus'
   histogram_quantile does), so it moves smoothly with the distribution.
   A bucket's upper edge is lowered to the largest sample, so the
   estimate never exceeds it.  Bucket b > 0 spans [lo*10^(b/bpd),
   lo*10^((b+1)/bpd)) and is interpolated geometrically; bucket 0 also
   holds every value at or below [lo], down to 0, and is interpolated
   linearly from 0, so a histogram of zeros reads 0. *)
let quantile h q =
  let n = H.count h in
  if n = 0 then 0.0
  else
    let counts = H.counts h in
    let edge b = H.lo h *. (10.0 ** (float_of_int b /. float_of_int (H.buckets_per_decade h))) in
    let target = q *. float_of_int n in
    let rec scan b acc =
      if b >= Array.length counts then H.max_seen h
      else
        let c = counts.(b) in
        if c > 0 && float_of_int (acc + c) >= target then
          let frac = (target -. float_of_int acc) /. float_of_int c in
          let hi = Float.min (edge (b + 1)) (H.max_seen h) in
          if b = 0 then frac *. hi
          else
            let lo = Float.min (edge b) hi in
            lo *. ((hi /. lo) ** frac)
        else scan (b + 1) (acc + c)
    in
    scan 0 0

(* --- host-time sampler (DESIGN.md §4.9) -------------------------------- *)

(* The libraries under lib/ that a run executes; host samples are charged
   to the innermost stack frame whose source file lies in one of them. *)
let layers = [ "sim"; "waffinity"; "core"; "fs"; "storage"; "flash"; "obs"; "workload"; "util" ]

let layer_of_stack stack =
  match Printexc.backtrace_slots stack with
  | None -> None
  | Some slots ->
      Array.find_map
        (fun slot ->
          match Printexc.Slot.location slot with
          | Some { Printexc.filename; _ } -> (
              match String.split_on_char '/' filename with
              | "lib" :: lib :: _ when List.mem lib layers -> Some lib
              | _ -> None)
          | None -> None)
        slots

(* Runs [f] with a SIGVTALRM sampler: every 1 ms of process CPU time the
   handler records the call stack.  Returns [f]'s result and the sample
   count per layer; samples with no frame in [layers] count under
   "unattributed". *)
let with_sampler f =
  let stacks = ref [] in
  Sys.set_signal Sys.sigvtalrm
    (Sys.Signal_handle (fun _ -> stacks := Printexc.get_callstack 128 :: !stacks));
  let timer period = ignore (Unix.setitimer Unix.ITIMER_VIRTUAL { Unix.it_interval = period; it_value = period }) in
  timer 0.001;
  let r =
    Fun.protect f ~finally:(fun () ->
        timer 0.0;
        Sys.set_signal Sys.sigvtalrm Sys.Signal_ignore)
  in
  let tally = Hashtbl.create 16 in
  List.iter
    (fun st ->
      let key = Option.value (layer_of_stack st) ~default:"unattributed" in
      Hashtbl.replace tally key (1 + Option.value (Hashtbl.find_opt tally key) ~default:0))
    !stacks;
  (r, tally)

(* --- the run ----------------------------------------------------------- *)

(* Everything a run determines exactly: a given seed reproduces each value
   bit for bit, so repetitions and the traced run must agree on all of
   them.  Names are the benchmark's metric names. *)
let exact (r : D.result) ~eng ~m =
  let f = float_of_int in
  let per_op x = x /. f r.D.ops in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let p99 name = match M.histo m name with Some h -> quantile h 0.99 | None -> 0.0 in
  let health =
    match r.D.telemetry with
    | Some t -> List.length t.D.tr_events + t.D.tr_health_dropped
    | None -> 0
  in
  [
    ("sim_ops_per_s", r.D.throughput);
    ("sim_write_p50_us", quantile r.D.write_latency 0.50);
    ("sim_write_p999_us", quantile r.D.write_latency 0.999);
    ("sim_op_p999_us", quantile r.D.latency 0.999);
    ("sim_walloc_cores", D.cores_write_alloc r);
    ("sim_waf", r.D.waf);
    ("sim.dispatches_per_op", per_op (f (Engine.context_switches eng)));
    ("waffinity.msgs_per_op", per_op (M.counter_value m "sched.messages"));
    ("waffinity.wait_us_p99.stripe", p99 "sched.wait_us.stripe");
    ("waffinity.wait_us_p99.vol_range", p99 "sched.wait_us.vol_range");
    ("waffinity.wait_us_p99.agg_range", p99 "sched.wait_us.agg_range");
    ("core.cleaner_cores", r.D.cores_cleaner);
    ("core.get_waits", f r.D.get_waits);
    ("core.infra_cores", r.D.cores_infra);
    ("core.metafile_blocks_per_op", per_op (f r.D.metafile_blocks_touched));
    ("core.infra_msgs_per_op", per_op (f r.D.infra_messages));
    ("core.cp_duration_us_p99", p99 "cp.duration_us");
    ("core.b2b_cps", f r.D.b2b_cps);
    ("core.avg_active_cleaners", r.D.avg_active_cleaners);
    ("fs.nvlog_stall_us_per_write", ratio r.D.stall_us (f r.D.writes));
    ("fs.throttle_us_p99", p99 "op.throttle_us");
    ("storage.full_stripe_frac", ratio (f r.D.full_stripes) (f (r.D.full_stripes + r.D.partial_stripes)));
    ("storage.blocks_per_io", ratio (M.counter_value m "raid.blocks") (M.counter_value m "raid.ios"));
    ("storage.read_contiguity", r.D.read_contiguity);
    ("storage.io_service_us_p99", p99 "raid.io_service_us");
    ("storage.io_wait_us_p99", p99 "raid.io_wait_us");
    ("flash.gc_stall_us_per_write", ratio r.D.flash_gc_stall_us (f r.D.writes));
    ("flash.erases_per_host_page", ratio (f r.D.flash_erases) (f r.D.flash_host_pages));
    ("obs.health_events", f health);
    ("workload.backlog_frac", ratio (f (r.D.offered_ops - r.D.ops)) (f r.D.offered_ops));
  ]

(* A hash of every count a run produces: the Driver.result counters and
   latency histograms (bucket counts, sum, maximum), the per-tenant
   counts, the engine's dispatch count and the whole Metrics registry.
   Repetitions of a seed and the traced run must hash alike, so a
   nondeterminism that moves a count shows even where no derived metric
   changes. *)
let digest (r : D.result) ~eng ~m =
  let b = Buffer.create 8192 in
  let num name v = Printf.bprintf b "%s=%h\n" name v in
  let int name v = Printf.bprintf b "%s=%d\n" name v in
  let histo name h =
    Printf.bprintf b "%s=%d,%h,%h:" name (H.count h) (H.sum h) (H.max_seen h);
    Array.iter (Printf.bprintf b " %d") (H.counts h);
    Buffer.add_char b '\n'
  in
  List.iter
    (fun (k, v) -> int k v)
    [
      ("ops", r.D.ops); ("reads", r.D.reads); ("writes", r.D.writes); ("metas", r.D.metas);
      ("cps_completed", r.D.cps_completed); ("buffers_cleaned", r.D.buffers_cleaned);
      ("vbns_allocated", r.D.vbns_allocated); ("vbns_freed", r.D.vbns_freed);
      ("metafile_blocks_touched", r.D.metafile_blocks_touched);
      ("infra_messages", r.D.infra_messages); ("cleaner_messages", r.D.cleaner_messages);
      ("get_waits", r.D.get_waits); ("full_stripes", r.D.full_stripes);
      ("partial_stripes", r.D.partial_stripes); ("offered_ops", r.D.offered_ops);
      ("shed_ops", r.D.shed_ops); ("throttled_ops", r.D.throttled_ops); ("b2b_cps", r.D.b2b_cps);
      ("b2b_episodes", r.D.b2b_episodes); ("nvlog_exhausted", r.D.nvlog_exhausted);
      ("races", r.D.races); ("flash_host_pages", r.D.flash_host_pages);
      ("flash_gc_pages", r.D.flash_gc_pages); ("flash_erases", r.D.flash_erases);
      ("context_switches", Engine.context_switches eng);
    ];
  List.iter
    (fun (k, v) -> num k v)
    [
      ("duration", r.D.duration); ("stall_us", r.D.stall_us);
      ("flash_gc_stall_us", r.D.flash_gc_stall_us); ("cores_client", r.D.cores_client);
      ("cores_cp", r.D.cores_cp); ("cores_io_other", r.D.cores_io_other);
      ("utilization", r.D.utilization);
    ];
  histo "latency" r.D.latency;
  histo "write_latency" r.D.write_latency;
  Array.iteri
    (fun i t ->
      Printf.bprintf b "tenant%d=%d,%d,%d,%d,%d\n" i t.D.t_offered t.D.t_admitted t.D.t_throttled
        t.D.t_shed t.D.t_completed;
      histo (Printf.sprintf "tenant%d.write_latency" i) t.D.t_write_latency)
    r.D.tenants;
  List.iter (fun (k, v) -> num ("counter." ^ k) v) (M.counters m);
  List.iter (fun (k, v) -> num ("gauge." ^ k) v) (M.gauges m);
  List.iter (fun (k, h) -> histo ("histogram." ^ k) h) (M.histograms m);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Set-up (build, prefill and the CP that flushes it) ends when
   [Driver.run] starts its clients, so its host time runs from the call
   to the first dispatch of a "client" or "arrival" fiber; nothing else
   carries those labels.  The dispatch hook then removes itself, so the
   rest of the run executes without hooks, as an unobserved run does. *)
let watch_setup eng ~t0 ~setup_s =
  Engine.set_obs_hooks eng
    {
      Engine.on_consume = (fun ~fid:_ ~label:_ ~amount:_ ~now:_ -> ());
      on_switch =
        (fun ~fid:_ ~label ~now:_ ->
          if label = "client" || label = "arrival" then begin
            setup_s := Unix.gettimeofday () -. !t0;
            Engine.clear_obs_hooks eng
          end);
      on_wake = (fun ~waker:_ ~wakee:_ ~now:_ -> ());
      on_spawn = (fun ~parent:_ ~child:_ ~now:_ -> ());
    }

let run kind (w : Workloads.t) ~seed ~smoke =
  let t0 = ref 0.0 and setup_s = ref Float.nan in
  let probe = ref None in
  let spec =
    {
      (w.Workloads.spec ~seed ~smoke) with
      D.obs =
        (fun eng ->
          let t = Wafl_obs.Trace.metrics_only eng in
          probe := Some (eng, Wafl_obs.Trace.metrics t);
          watch_setup eng ~t0 ~setup_s;
          t);
    }
  in
  let timed () =
    let g0 = Gc.quick_stat () in
    t0 := Unix.gettimeofday ();
    let r = D.run spec in
    let wall = Unix.gettimeofday () -. !t0 in
    let g1 = Gc.quick_stat () in
    (r, wall, g1.Gc.minor_words -. g0.Gc.minor_words, g1.Gc.major_collections - g0.Gc.major_collections)
  in
  let (r, wall, minor_words, major_gcs), samples =
    match kind with
    | Traced ->
        let res, tally = with_sampler timed in
        (res, Hashtbl.fold (fun k v acc -> (k, Jsonw.int v) :: acc) tally [] |> List.sort compare)
    | Full -> (timed (), [])
  in
  let eng, m = Option.get !probe in
  print_endline
    (Jsonw.to_string
       (J.Obj
          [
            ("wall_s", J.Num wall);
            ("setup_s", J.Num !setup_s);
            ("rss_mb", J.Num (peak_rss_mb ()));
            ("ops", Jsonw.int r.D.ops);
            ("offered", Jsonw.int r.D.offered_ops);
            ("failed", Jsonw.int (r.D.nvlog_exhausted + r.D.shed_ops));
            ("races", Jsonw.int r.D.races);
            ("nvlog_exhausted", Jsonw.int r.D.nvlog_exhausted);
            ("context_switches", Jsonw.int (Engine.context_switches eng));
            ("minor_words", J.Num minor_words);
            ("major_gcs", Jsonw.int major_gcs);
            ("exact", J.Obj (List.map (fun (k, v) -> (k, J.Num v)) (exact r ~eng ~m)));
            ("digest", J.Str (digest r ~eng ~m));
            ("samples", J.Obj samples);
          ]))
