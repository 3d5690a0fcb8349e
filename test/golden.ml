(* The golden digest table every byte-identity check compares against.

   A subject is a value the simulator computes deterministically (figure
   rows, crash outcomes, a shard outcome, a driver result, what a CLI
   command prints) with the thunk that computes it; its golden is the hex
   MD5 of its [Marshal] image, recorded in golden_table.ml.  The checks
   and the printer share the one list the subjects register in.  Each
   plain run (one domain, untraced, unsanitized) is asserted once: by the
   [golden] group of test_workload, or by the subject's [owner] test.
   Each observe-only mode asserts its own run against the same golden.

   Re-recording: [make golden] prints the table afresh.  A golden changes
   only in a change whose cost-model, workload-stream or result-type
   change causes it, and CHANGES.md lists every re-recorded entry.  Never
   re-record to make a failure go away. *)

module H = Wafl_harness
module Driver = Wafl_workload.Driver
module Arrival = Wafl_workload.Arrival
module Trace = Wafl_obs.Trace

type mode = Plain | Sanitize | Trace | Causal | Telemetry | Domains of int

let mode_name = function
  | Plain -> "plain"
  | Sanitize -> "sanitize"
  | Trace -> "trace"
  | Causal -> "causal"
  | Telemetry -> "telemetry"
  | Domains n -> Printf.sprintf "d%d" n

(* What a mode attaches to every run of a subject. *)
type setting = {
  domains : int;
  sanitize : bool;
  telemetry : Driver.telemetry option;
  obs : (Wafl_sim.Engine.t -> Trace.t) option;
}

type 'a subject = {
  key : string;
  owner : string option;  (** the test asserting the plain run, if not the golden group *)
  exports : mode list;  (** traced modes whose trace export is pinned too *)
  compute : setting -> 'a;
}

type entry = Entry : 'a subject -> entry

let registry = ref []

let subject ?owner ?(exports = []) key compute =
  let s = { key; owner; exports; compute } in
  registry := Entry s :: !registry;
  s

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))
let export_key s mode = Printf.sprintf "%s | %s export" s.key (mode_name mode)

(* [s]'s value under [mode], and the tracer of its last run. *)
let run s mode =
  let last = ref Trace.disabled in
  let obs causal =
    Some
      (fun eng ->
        last := Trace.create ~causal eng;
        !last)
  in
  let st = { domains = 1; sanitize = false; telemetry = None; obs = None } in
  let v =
    s.compute
      (match mode with
      | Plain -> st
      | Sanitize -> { st with sanitize = true }
      | Trace -> { st with obs = obs false }
      | Causal -> { st with obs = obs true }
      | Telemetry -> { st with telemetry = Some Driver.default_telemetry }
      | Domains domains -> { st with domains })
  in
  (v, !last)

let recorded key =
  match List.assoc_opt key Golden_table.recorded with
  | Some d -> d
  | None -> Alcotest.failf "no golden recorded for %S: run make golden" key

(* Asserts [v], [s]'s value under [mode], against its golden.  [pin] maps
   it to what the plain run also has (telemetry mode strips the telemetry
   it attached).  [export] is the run's trace export when [s] pins it
   (export once: exporting closes the counter timeseries). *)
let expect ?(pin = Fun.id) ?(export = "") s mode v =
  let name = Printf.sprintf "%s (%s)" s.key (mode_name mode) in
  Alcotest.(check string) (name ^ " matches its golden") (recorded s.key) (digest (pin v));
  if List.mem mode s.exports then
    Alcotest.(check string) (name ^ " trace export matches its golden")
      (recorded (export_key s mode)) (digest export)

let check ?pin s mode =
  let v, last = run s mode in
  let export = if List.mem mode s.exports then Trace.export_string last else "" in
  expect ?pin ~export s mode v;
  v

(* --- subjects ------------------------------------------------------------ *)

let scale = 0.02

let ctx ?(scale = scale) st =
  H.Exp.context ~scale ~domains:st.domains ~sanitize:st.sanitize ?telemetry:st.telemetry
    ?obs:st.obs ()

(* The mode's attachments put onto a spec; a spec's own telemetry stays
   unless the mode brings some. *)
let on_spec st (spec : Driver.spec) =
  {
    spec with
    Driver.sanitize = st.sanitize;
    telemetry = (match st.telemetry with None -> spec.Driver.telemetry | t -> t);
    obs = Option.value st.obs ~default:spec.Driver.obs;
  }

let spec_subject ?owner ?exports key spec =
  subject ?owner ?exports key (fun st -> Driver.run (on_spec st spec))

(* Paper figures at the tests' scale. *)
let fig4 = subject "fig4" (fun st -> H.Fig4.run (ctx st))
let fig5 = subject "fig5" (fun st -> H.Fig5.run ~thread_counts:[ 1; 4 ] (ctx st))
let fig6 = subject "fig6" (fun st -> H.Fig6.run (ctx st))
let fig7 = subject "fig7" (fun st -> H.Fig7.run (ctx st))
let fig8 = subject "fig8" (fun st -> H.Fig8.run (ctx st))
let fig9 = subject "fig9" (fun st -> H.Fig9.run ~levels:2 (ctx st))
let overload = subject "overload" (fun st -> H.Overload.run (ctx st))
let flash = subject "flash" (fun st -> H.Flash.run (ctx st))

let crash =
  subject "crash 5 seeds" (fun st ->
      H.Crash.run_seeds ~ops:20_000 ~horizon:20_000.0 ~sanitize:st.sanitize
        ~domains:st.domains ~first_seed:1 ~count:5 ())

(* The crash harness's negative control: CPs that publish before the
   io-flush quiesce (owned by the test that shows the harness catches it). *)
let crash_chaos =
  subject ~owner:"broken commit ordering caught" "crash 6 seeds publish-before-quiesce"
    (fun st ->
      H.Crash.run_seeds
        ~chaos:{ Wafl_storage.Fault.no_chaos with publish_before_quiesce = true }
        ~sanitize:st.sanitize ~domains:st.domains ~first_seed:1 ~count:6 ())

let shard =
  subject "shard scale 0.1, 3 shards" (fun st ->
      H.Shard.run ~scale:0.1 ~shards:3 ~domains:st.domains ())

(* One paper-platform run, and one with enough concurrent clients to grow
   and recycle the scheduler's worker pool. *)
let same_seed =
  spec_subject ~exports:[ Trace; Causal ] "spec_base seed 7"
    { (H.Exp.spec_base ~scale) with Driver.seed = 7 }

let pool_churn =
  spec_subject ~exports:[ Trace ] "spec_base 24 clients seed 11"
    { (H.Exp.spec_base ~scale) with Driver.clients = 24; seed = 11 }

(* The driver's small closed-loop spec (test_workload, test_telemetry). *)
let small_spec ?(workload = Driver.Seq_write { file_blocks = 1024 }) ?(clients = 6)
    ?(think = 0.0) ?(volumes = 1) () =
  {
    Driver.default_spec with
    Driver.cores = 8;
    workload;
    clients;
    think_time = think;
    volumes;
    geometry = Driver.small_geometry ();
    nvlog_half = 2048;
    warmup = 80_000.0;
    measure = 250_000.0;
    cfg = { Wafl_core.Walloc.default_config with cp_timer = Some 100_000.0 };
  }

(* Open-loop overload (test_overload): one hot bursty tenant and two
   polite victims, each on its own volume, against a small NVRAM. *)
let watermarks = { Wafl_fs.Nvlog.soft = 0.5; hard = 0.9; pace = 25.0 }

let bursty burst_rate =
  Arrival.Bursty { base_rate = 5_000.0; burst_rate; mean_on_us = 3_000.0; mean_off_us = 10_000.0 }

let hot = bursty 400_000.0
let victim = Arrival.Poisson { rate = 2_000.0 }

let open_spec ?(qos = None) ?(watermarks = Some watermarks) ?(nvlog_half = 256) () =
  {
    Driver.default_spec with
    Driver.cores = 8;
    workload = Driver.Rand_write { file_blocks = 1024 };
    clients = 3;
    volumes = 3;
    geometry = Driver.small_geometry ();
    nvlog_half;
    watermarks;
    open_loop = Some { Driver.arrivals = [ hot; victim; victim ]; qos };
    warmup = 60_000.0;
    measure = 200_000.0;
    cfg = { Wafl_core.Walloc.default_config with cp_timer = Some 100_000.0 };
  }

let qos_config = { Wafl_qos.Qos.rate_per_s = 12_000.0; burst = 32.0; queue_depth = 64 }

let open_qos =
  spec_subject ~owner:"qos sheds the hot tenant only" "open_spec + qos"
    (open_spec ~qos:(Some qos_config) ())

let open_qos_seeds =
  List.map
    (fun seed ->
      spec_subject ~owner:"determinism open-loop replay identity"
        (Printf.sprintf "open_spec + qos seed %d" seed)
        { (open_spec ~qos:(Some qos_config) ()) with Driver.seed })
    [ 1; 2; 3 ]

let fair_cp =
  let s = open_spec ~qos:(Some qos_config) () in
  spec_subject ~owner:"qos fair CP admission" "open_spec + qos + fair CP"
    { s with Driver.cfg = { s.Driver.cfg with Wafl_core.Walloc.fair_cp = true } }

(* Telemetry's observe-only subjects (test_telemetry). *)
let telemetry_closed = spec_subject "two-volume seq_write" (small_spec ~volumes:2 ())

let telemetry_open =
  spec_subject "four-tenant Zipf open loop"
    {
      (small_spec ~clients:4 ~volumes:4 ()) with
      Driver.open_loop =
        Some
          {
            Driver.arrivals = Arrival.population ~n:4 ~total_rate:40_000.0 ~alpha:1.0;
            qos = Some Wafl_qos.Qos.default_config;
          };
    }

(* Whole driver results over the workload mixes, open loop with QoS and
   watermarks and telemetry, and flash (test_workload). *)
let driver_results =
  let owner = "driver golden result digests" in
  let trickle = Arrival.Poisson { rate = 3_000.0 } in
  let overload_qos =
    {
      (open_spec ~nvlog_half:64 ()) with
      Driver.workload = Driver.Rand_write { file_blocks = 512 };
      open_loop =
        Some
          {
            Driver.arrivals = [ bursty 300_000.0; trickle; trickle ];
            qos = Some { Wafl_qos.Qos.rate_per_s = 30_000.0; burst = 8.0; queue_depth = 16 };
          };
      telemetry = Some Driver.default_telemetry;
      warmup = 40_000.0;
      measure = 120_000.0;
    }
  in
  let skewed_flash =
    {
      (small_spec
         ~workload:
           (Driver.Skewed_write { file_blocks = 2048; hot_fraction = 0.2; hot_rate = 0.8 })
         ~clients:4 ())
      with
      Driver.flash =
        Some
          {
            Wafl_flash.Ftl.default_config with
            Wafl_flash.Ftl.pages_per_block = 64;
            logical_capacity = 0.16;
            op_ratio = 0.1;
            streams = 2;
          };
      measure = 150_000.0;
    }
  in
  List.map
    (fun (key, spec) -> spec_subject ~owner key spec)
    [
      ("closed seq_write", small_spec ());
      ( "closed rand_write + think",
        small_spec ~workload:(Driver.Rand_write { file_blocks = 1024 }) ~think:40.0 () );
      ( "nfs_mix",
        small_spec ~workload:(Driver.Nfs_mix { files_per_client = 8; file_blocks = 32 }) () );
      ("open loop + qos + watermarks + telemetry", overload_qos);
      ("skewed_write on flash", skewed_flash);
    ]

(* The small spec replayed at five more seeds (its default seed is
   "closed seq_write" above): each run once against its digest, where
   the replay checks used to run it twice and compare. *)
let small_spec_seeds =
  List.map
    (fun seed ->
      spec_subject ~owner:"driver five-seed replay identity"
        (Printf.sprintf "small_spec seed %d" seed)
        { (small_spec ()) with Driver.seed })
    [ 1; 2; 3; 4; 5 ]

(* The values CLI commands print (or write), at their default flags: the
   checks each change used to diff by hand against its parent. *)
let cli_crash ?flash key count =
  subject key (fun _ ->
      H.Crash.run_seeds ~ops:100_000 ~fbn_space:700 ~horizon:60_000.0 ?flash ~first_seed:1
        ~count ())

let cli_crash_8 = cli_crash "wafl_sim crash --seeds 8" 8
let cli_crash_flash = cli_crash ~flash:true "wafl_sim crash --flash --seeds 4" 4

let cli_shard =
  subject "wafl_sim shard --scale 0.25 --shards 3 --domains 2" (fun _ ->
      H.Shard.run ~scale:0.25 ~shards:3 ~domains:2 ~seed:42 ())

let cli_overload =
  subject "wafl_sim overload --scale 0.1" (fun st -> H.Overload.run (ctx ~scale:0.1 st))

let cli_fig6 = subject "wafl_sim fig6 --scale 0.1" (fun st -> H.Fig6.run (ctx ~scale:0.1 st))

(* [top --live --measure 0.5 ... --json]: the document it writes, with
   [tweak] applying the flags past the defaults. *)
let top_live ?(window_us = 100_000.0) tweak =
  let module Rollup = Wafl_obs.Rollup in
  let ring = { Rollup.default_config with Rollup.window_us; windows = 8 } in
  let budget = max ring.Rollup.vol_budget_bytes (9 * Rollup.vol_window_bytes) in
  let rollup = { ring with Rollup.vol_budget_bytes = budget } in
  let r =
    Driver.run
      (tweak
         {
           Driver.default_spec with
           Driver.workload = Driver.Seq_write { file_blocks = 4096 };
           clients = 40;
           volumes = 8;
           cores = 20;
           measure = 500_000.0;
           seed = 42;
           telemetry = Some { Driver.rollup; rules = Wafl_obs.Health.default_rules };
         })
  in
  let tr = Option.get r.Driver.telemetry in
  Wafl_obs.Json.to_string (Wafl_obs.Top.to_json tr.Driver.tr_snapshot tr.Driver.tr_events)

let cli_top = subject "wafl_sim top --live --measure 0.5 --json" (fun _ -> top_live Fun.id)

(* The light-load run of [make top-smoke] that injects back-to-back CPs. *)
let cli_top_b2b =
  subject
    "wafl_sim top --live --measure 0.5 --think 300 --cp-ms 3 --window 200 --inject-b2b --json"
    (fun _ ->
      top_live ~window_us:200_000.0 (fun spec ->
          {
            spec with
            Driver.think_time = 300.0;
            cfg = { spec.Driver.cfg with Wafl_core.Walloc.cp_timer = Some 3_000.0 };
            chaos = { Wafl_storage.Fault.no_chaos with force_b2b = true };
          }))

(* The engine alone: a seeded fiber program over every scheduling
   primitive (consume, sleep, yield, park/wake, join, spawn ~at and
   quantum preemption), digested as the (time, fid, label) sequence the
   observability hooks see.  Durations are whole microseconds, so events
   tie often and the tie order is pinned too. *)
let engine_schedule =
  subject ~owner:"schedule trace matches its golden" "engine schedule trace" (fun st ->
      let module E = Wafl_sim.Engine in
      let module Fifo = Wafl_util.Fifo in
      let module Rng = Wafl_util.Rng in
      let eng = E.create ~quantum:20.0 ~sanitize:st.sanitize ~cores:3 () in
      let seen = ref [] in
      let note now fid label = seen := (now, fid, label) :: !seen in
      E.set_obs_hooks eng
        {
          E.on_consume = (fun ~fid ~label ~amount:_ ~now -> note now fid label);
          on_switch = (fun ~fid ~label ~now -> note now fid label);
          on_wake = (fun ~waker:_ ~wakee ~now -> note now wakee "wake");
          on_spawn = (fun ~parent:_ ~child ~now -> note now child "spawn");
        };
      let rng = Rng.create ~seed:2017 and parked = E.fiber_fifo () in
      let workers = 10 in
      let running = ref workers in
      ignore
        (E.spawn eng ~label:"waker" ~daemon:true (fun () ->
             while !running > 0 do
               E.sleep 7.0;
               while not (Fifo.is_empty parked) do
                 E.wake eng (Fifo.pop parked)
               done
             done));
      for i = 0 to workers - 1 do
        let r = Rng.split rng in
        let whole lo hi = float_of_int (Rng.int_in r lo hi) in
        let label = Printf.sprintf "w%d" i in
        let at = if i mod 3 = 2 then Some (whole 1 30) else None in
        ignore
          (E.spawn eng ~label ?at (fun () ->
               for _ = 1 to 25 do
                 match Rng.int r 6 with
                 | 0 -> E.consume (whole 1 8)
                 | 1 ->
                     for _ = 1 to 6 do
                       E.consume (whole 3 9)
                     done
                 | 2 -> E.sleep (whole 0 12)
                 | 3 -> E.yield ()
                 | 4 ->
                     Fifo.push parked (E.self eng);
                     E.park eng
                 | _ ->
                     let at = if Rng.bool r then Some (E.now eng +. whole 1 10) else None in
                     let child =
                       E.spawn eng ~label:(label ^ ".c") ?at (fun () ->
                           E.consume (whole 1 6);
                           E.sleep (whole 1 4))
                     in
                     (* A long consume first often joins a finished child. *)
                     if Rng.bool r then E.consume (whole 1 20);
                     E.join eng child
               done;
               decr running))
      done;
      E.run eng;
      (List.rev !seen, E.now eng, E.context_switches eng))

(* The Waffinity scheduler alone: a seeded script of posts over a deep
   affinity tree (Serial down to Stripe and Vol_range), where some
   bodies post again, digested as the (label, start time) sequence of
   the granted messages at 1, 3 and 20 workers.  Work is whole
   microseconds, so grants often tie in time and the order among
   simultaneous grants is pinned too. *)
let grant_order =
  subject ~owner:"grant order matches its golden" "waffinity grant order" (fun st ->
      let module E = Wafl_sim.Engine in
      let module A = Wafl_waffinity.Affinity in
      let module S = Wafl_waffinity.Scheduler in
      let module Rng = Wafl_util.Rng in
      let run workers =
        let eng = E.create ~sanitize:st.sanitize ~cores:4 () in
        let sched = S.create ~workers eng ~cost:Wafl_sim.Cost.default () in
        let rng = Rng.create ~seed:39 in
        let agg () = Rng.int rng 2 and vol () = Rng.int rng 2 in
        let affinity () =
          match Rng.int rng 16 with
          | 0 -> A.Serial
          | 1 -> A.Aggregate (agg ())
          | 2 -> A.Aggregate_vbn (agg ())
          | 3 | 4 -> A.Agg_range (agg (), Rng.int rng 3)
          | 5 -> A.Volume (agg (), vol ())
          | 6 -> A.Volume_logical (agg (), vol ())
          | 7 -> A.Volume_vbn (agg (), vol ())
          | 8 | 9 | 10 -> A.Vol_range (agg (), vol (), Rng.int rng 3)
          | _ -> A.Stripe (agg (), vol (), Rng.int rng 4)
        in
        let starts = ref [] in
        let rec post label depth =
          let affinity = affinity () and work = float_of_int (Rng.int_in rng 1 12) in
          let again = depth < 2 && Rng.int rng 4 = 0 in
          S.post sched ~affinity ~label (fun () ->
              starts := (label, E.now eng) :: !starts;
              E.consume work;
              if again then post (label ^ "+") (depth + 1))
        in
        ignore
          (E.spawn eng ~label:"poster" (fun () ->
               for i = 0 to 299 do
                 post (Printf.sprintf "m%d" i) 0;
                 if Rng.int rng 3 = 0 then E.sleep (float_of_int (Rng.int rng 6))
               done));
        E.run eng;
        (workers, List.rev !starts, E.now eng)
      in
      List.map run [ 1; 3; 20 ])

let entries = List.rev !registry

(* --- the plain suite and the printer ------------------------------------- *)

let keys (Entry s) = s.key :: List.map (export_key s) s.exports

(* One test case per subject the golden group owns: its plain run. *)
let plain_cases () =
  List.filter_map
    (fun (Entry s) ->
      if s.owner <> None then None
      else Some (Alcotest.test_case s.key `Slow (fun () -> ignore (check s Plain))))
    entries

let test_table_complete () =
  let all = List.concat_map keys entries in
  Alcotest.(check int) "subject keys are unique" (List.length all)
    (List.length (List.sort_uniq compare all));
  Alcotest.(check (list string))
    "golden_table.ml records exactly the registered subjects, in order"
    all
    (List.map fst Golden_table.recorded)

(* The source of golden_table.ml, computed afresh. *)
let print () =
  print_string "(* Written by `make golden`; see golden.ml. *)\nlet recorded =\n  [\n";
  let line key v = Printf.printf "    (%S, %S);\n%!" key (digest v) in
  List.iter
    (fun (Entry s) ->
      line s.key (fst (run s Plain));
      List.iter (fun m -> line (export_key s m) (Trace.export_string (snd (run s m)))) s.exports)
    entries;
  print_string "  ]\n"
