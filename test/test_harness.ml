(* Tests for the experiment-harness logic itself: configuration helpers
   and the shape-check predicates, exercised on synthetic results so they
   run in microseconds.  (The experiments' real outputs are validated by
   `bench/main.exe`, which prints the same shape checks.) *)

open Wafl_workload
module H = Wafl_harness

let synthetic ?(throughput = 100_000.0) ?(cores_cleaner = 1.0) ?(cores_infra = 0.5)
    ?(utilization = 0.5) ?(metafile_blocks_touched = 0) ?(writes = 100_000)
    ?(cleaner_messages = 100) ?(avg_active_cleaners = 1.0) ?(latency_mean = 50.0) () =
  let latency = Wafl_util.Histogram.create () in
  for _ = 1 to 100 do
    Wafl_util.Histogram.add latency latency_mean
  done;
  {
    Driver.ops = int_of_float (throughput /. 10.0);
    duration = 1_000_000.0;
    virtual_us = 1_300_000.0;
    throughput;
    throughput_per_client = throughput /. 40.0;
    latency;
    write_latency = latency;
    reads = 0;
    writes;
    metas = 0;
    cores_client = 5.0;
    cores_cleaner;
    cores_infra;
    cores_cp = 0.1;
    cores_io_other = 0.1;
    utilization;
    cps_completed = 10;
    buffers_cleaned = writes;
    vbns_allocated = writes;
    vbns_freed = writes;
    metafile_blocks_touched;
    infra_messages = 1000;
    cleaner_messages;
    get_waits = 0;
    avg_active_cleaners;
    full_stripes = 1000;
    partial_stripes = 10;
    read_contiguity = 50.0;
    offered_ops = int_of_float (throughput /. 10.0);
    shed_ops = 0;
    throttled_ops = 0;
    stall_us = 0.0;
    b2b_cps = 0;
    b2b_episodes = 0;
    nvlog_exhausted = 0;
    tenants = [||];
    races = 0;
    flash_host_pages = 0;
    flash_gc_pages = 0;
    flash_erases = 0;
    flash_gc_stall_us = 0.0;
    waf = 1.0;
    telemetry = None;
  }

let all_ok shapes = List.for_all snd shapes
let any_missed shapes = List.exists (fun (_, ok) -> not ok) shapes

(* --- Exp helpers --- *)

let test_gain_pct () =
  Alcotest.(check (float 1e-9)) "gain" 50.0 (H.Exp.gain_pct ~baseline:100.0 150.0);
  Alcotest.(check (float 1e-9)) "negative gain" (-25.0) (H.Exp.gain_pct ~baseline:100.0 75.0);
  Alcotest.(check (float 1e-9)) "zero baseline guarded" 0.0 (H.Exp.gain_pct ~baseline:0.0 10.0)

let test_wa_config_composition () =
  let cfg = H.Exp.wa_config ~cleaners:3 ~parallel_infra:false ~dynamic:true () in
  Alcotest.(check int) "cleaners" 3 cfg.Wafl_core.Walloc.cleaner_threads;
  Alcotest.(check bool) "serial infra" false cfg.Wafl_core.Walloc.parallel_infra;
  Alcotest.(check bool) "dynamic" true cfg.Wafl_core.Walloc.dynamic_cleaners;
  Alcotest.(check bool) "cp timer set" true (cfg.Wafl_core.Walloc.cp_timer <> None)

let test_spec_base_scaling () =
  let full = H.Exp.spec_base ~scale:1.0 in
  let quarter = H.Exp.spec_base ~scale:0.25 in
  Alcotest.(check bool) "window shrinks" true
    (quarter.Driver.measure < full.Driver.measure);
  Alcotest.(check bool) "window floor respected" true
    (quarter.Driver.measure >= 200_000.0)

(* --- environment knobs: a malformed value is an error naming it --- *)

(* Runs [f] with [name] set to [value], then restores the previous value
   (the readers treat an empty variable as unset). *)
let with_env name value f =
  let saved = Option.value (Sys.getenv_opt name) ~default:"" in
  Unix.putenv name value;
  Fun.protect ~finally:(fun () -> Unix.putenv name saved) f

let rejects name value read =
  with_env name value (fun () ->
      match read () with
      | _ -> Alcotest.failf "%s=%S accepted" name value
      | exception Invalid_argument msg ->
          Alcotest.(check bool) (name ^ " named in the error") true
            (String.starts_with ~prefix:name msg))

let test_env_scale () =
  rejects "WAFL_SCALE" "0,25" H.Exp.of_env;
  rejects "WAFL_SCALE" "-1" H.Exp.of_env;
  with_env "WAFL_SCALE" "0.5" (fun () ->
      Alcotest.(check (float 0.0)) "WAFL_SCALE=0.5" 0.5 (H.Exp.of_env ()));
  with_env "WAFL_SCALE" "" (fun () ->
      Alcotest.(check (float 0.0)) "unset" 1.0 (H.Exp.of_env ()))

let test_env_domains () =
  rejects "WAFL_DOMAINS" "two" Wafl_util.Pool.default_domains;
  rejects "WAFL_DOMAINS" "0" Wafl_util.Pool.default_domains;
  with_env "WAFL_DOMAINS" "3" (fun () ->
      Alcotest.(check int) "WAFL_DOMAINS=3" 3 (Wafl_util.Pool.default_domains ()))

(* --- one context: each spec runs once, every figure is charged for it --- *)

(* Figure 6's two rows are Figure 4's rows 3 and 4. *)
let test_fig6_reuses_fig4 () =
  let scale = 0.02 and clock = Unix.gettimeofday in
  let charge ctx =
    let runs = H.Exp.charged ctx in
    ( List.fold_left (fun a (r : H.Exp.record) -> a +. r.wall_s) 0.0 runs,
      List.fold_left (fun a (r : H.Exp.record) -> a +. r.result.Driver.virtual_us) 0.0 runs )
  in
  let suite = H.Exp.context ~scale ~clock () in
  ignore (H.Fig4.run (H.Exp.scope suite));
  let executed () = List.length (H.Exp.executed suite) in
  let before = executed () in
  let fig6 = H.Exp.scope suite in
  let rows = H.Fig6.run fig6 in
  Alcotest.(check int) "fig6 executes no new spec" before (executed ());
  (* The golden is fig6 run alone, under a fresh context. *)
  Golden.expect Golden.fig6 Golden.Plain rows;
  let wall, virt = charge fig6 in
  Alcotest.(check bool) "charged wall non-zero" true (wall > 0.0);
  Alcotest.(check bool) "charged virtual time non-zero" true (virt > 0.0);
  Alcotest.(check (float 0.0)) "charged virtual time independent of fig4"
    (List.fold_left (fun a (r : H.Fig6.row) -> a +. r.result.Driver.virtual_us) 0.0 rows)
    virt

(* A spec's chaos plan is part of its run-table key: the same spec with
   and without forced back-to-back CPs is two runs, not a cached one. *)
let test_chaos_keys_run_table () =
  let ctx = H.Exp.context ~scale:0.02 () in
  let spec = Golden.small_spec () in
  let plain = H.Exp.run ctx spec in
  let b2b =
    H.Exp.run ctx
      { spec with Driver.chaos = { Wafl_storage.Fault.no_chaos with force_b2b = true } }
  in
  Alcotest.(check bool) "forced b2b changes b2b_cps" true
    (b2b.Driver.b2b_cps <> plain.Driver.b2b_cps);
  Alcotest.(check int) "both runs executed" 2 (List.length (H.Exp.executed ctx))

(* --- Fig4 shapes on synthetic permutation rows --- *)

let perm_rows ~base ~infra ~cleaners ~both =
  let row name result gain = { H.Perms.name; result; gain } in
  [
    row "base" base 0.0;
    row "infra" infra (H.Exp.gain_pct ~baseline:base.Driver.throughput infra.Driver.throughput);
    row "cleaners" cleaners
      (H.Exp.gain_pct ~baseline:base.Driver.throughput cleaners.Driver.throughput);
    row "both" both (H.Exp.gain_pct ~baseline:base.Driver.throughput both.Driver.throughput);
  ]

let paper_like_fig4 () =
  perm_rows
    ~base:(synthetic ~throughput:100_000.0 ~utilization:0.25 ())
    ~infra:(synthetic ~throughput:107_000.0 ~utilization:0.26 ())
    ~cleaners:(synthetic ~throughput:182_000.0 ~utilization:0.45 ())
    ~both:
      (synthetic ~throughput:374_000.0 ~utilization:0.95 ~cores_cleaner:3.9 ~cores_infra:2.35
         ())

let test_fig4_shapes_accept_paper_numbers () =
  Alcotest.(check bool) "paper-shaped data passes" true
    (all_ok (H.Fig4.shapes (paper_like_fig4 ())))

let test_fig4_shapes_reject_inverted_result () =
  (* If infra-only were the big winner, the sequential-write claim broke. *)
  let rows =
    perm_rows
      ~base:(synthetic ~throughput:100_000.0 ~utilization:0.25 ())
      ~infra:(synthetic ~throughput:190_000.0 ~utilization:0.5 ())
      ~cleaners:(synthetic ~throughput:110_000.0 ~utilization:0.3 ())
      ~both:
        (synthetic ~throughput:300_000.0 ~utilization:0.9 ~cores_cleaner:3.0 ~cores_infra:2.0
           ())
  in
  Alcotest.(check bool) "inverted data flagged" true (any_missed (H.Fig4.shapes rows))

let test_fig7_shapes_accept_paper_numbers () =
  let touches = 90_000 in
  let rows =
    perm_rows
      ~base:(synthetic ~throughput:100_000.0 ~utilization:0.6 ())
      ~infra:(synthetic ~throughput:125_000.0 ~utilization:0.7 ())
      ~cleaners:(synthetic ~throughput:114_000.0 ~utilization:0.65 ())
      ~both:
        (synthetic ~throughput:150_000.0 ~utilization:0.99
           ~metafile_blocks_touched:touches ())
  in
  Alcotest.(check bool) "paper-shaped data passes" true (all_ok (H.Fig7.shapes rows))

let test_fig7_shapes_reject_runaway_gain () =
  (* A +300% random-write gain would mean we rebuilt Figure 4, not 7. *)
  let rows =
    perm_rows
      ~base:(synthetic ~throughput:100_000.0 ~utilization:0.6 ())
      ~infra:(synthetic ~throughput:125_000.0 ())
      ~cleaners:(synthetic ~throughput:114_000.0 ())
      ~both:
        (synthetic ~throughput:400_000.0 ~utilization:0.99 ~metafile_blocks_touched:90_000 ())
  in
  Alcotest.(check bool) "runaway gain flagged" true (any_missed (H.Fig7.shapes rows))

(* --- Fig8 shapes --- *)

let fig8_rows ~peaks ~knee_lats ~dyn_peak ~dyn_lat ~dyn_threads =
  let mk c peak lat threads =
    {
      H.Fig8.config = c;
      peak = synthetic ~throughput:peak ();
      knee = synthetic ~throughput:(0.6 *. peak) ~latency_mean:lat ~avg_active_cleaners:threads ();
    }
  in
  List.map2
    (fun (c, peak) lat ->
      match c with
      | H.Fig8.Static n -> mk (H.Fig8.Static n) peak lat 1.0
      | H.Fig8.Dynamic -> mk H.Fig8.Dynamic dyn_peak dyn_lat dyn_threads)
    [
      (H.Fig8.Static 1, List.nth peaks 0);
      (H.Fig8.Static 2, List.nth peaks 1);
      (H.Fig8.Static 3, List.nth peaks 2);
      (H.Fig8.Static 4, List.nth peaks 3);
      (H.Fig8.Dynamic, 0.0);
    ]
    knee_lats

let test_fig8_shapes_accept_paper_numbers () =
  let rows =
    fig8_rows
      ~peaks:[ 480_000.0; 590_000.0; 588_000.0; 585_000.0 ]
      ~knee_lats:[ 30.0; 26.0; 26.5; 27.0; 26.2 ]
      ~dyn_peak:589_000.0 ~dyn_lat:26.2 ~dyn_threads:2.0
  in
  Alcotest.(check bool) "paper-shaped data passes" true (all_ok (H.Fig8.shapes rows))

let test_fig8_shapes_reject_lazy_dynamic () =
  let rows =
    fig8_rows
      ~peaks:[ 480_000.0; 590_000.0; 588_000.0; 585_000.0 ]
      ~knee_lats:[ 30.0; 26.0; 26.5; 27.0; 29.9 ]
      ~dyn_peak:480_000.0 ~dyn_lat:29.9 ~dyn_threads:1.0
  in
  Alcotest.(check bool) "dynamic stuck at one thread flagged" true
    (any_missed (H.Fig8.shapes rows))

(* --- Batching shapes --- *)

let test_batching_shapes () =
  let off = { H.Batching.batching = false; result = synthetic ~cleaner_messages:2000 () } in
  let on =
    {
      H.Batching.batching = true;
      result = synthetic ~cleaner_messages:300 ~throughput:103_000.0 ();
    }
  in
  Alcotest.(check bool) "good batching passes" true (all_ok (H.Batching.shapes [ off; on ]));
  let bad_on = { on with H.Batching.result = synthetic ~cleaner_messages:1900 () } in
  Alcotest.(check bool) "non-amortizing batching flagged" true
    (any_missed (H.Batching.shapes [ off; bad_on ]))

let () =
  Alcotest.run "wafl_harness"
    [
      ( "exp",
        [
          Alcotest.test_case "gain_pct" `Quick test_gain_pct;
          Alcotest.test_case "wa_config composition" `Quick test_wa_config_composition;
          Alcotest.test_case "spec_base scaling" `Quick test_spec_base_scaling;
          Alcotest.test_case "WAFL_SCALE bad and good values" `Quick test_env_scale;
          Alcotest.test_case "WAFL_DOMAINS bad and good values" `Quick test_env_domains;
        ] );
      ( "suite",
        [
          Alcotest.test_case "fig6 after fig4 reuses its runs" `Slow test_fig6_reuses_fig4;
          Alcotest.test_case "chaos plan keys the run table" `Quick test_chaos_keys_run_table;
        ] );
      ( "shape checks",
        [
          Alcotest.test_case "fig4 accepts paper numbers" `Quick
            test_fig4_shapes_accept_paper_numbers;
          Alcotest.test_case "fig4 rejects inversion" `Quick
            test_fig4_shapes_reject_inverted_result;
          Alcotest.test_case "fig7 accepts paper numbers" `Quick
            test_fig7_shapes_accept_paper_numbers;
          Alcotest.test_case "fig7 rejects runaway gain" `Quick
            test_fig7_shapes_reject_runaway_gain;
          Alcotest.test_case "fig8 accepts paper numbers" `Quick
            test_fig8_shapes_accept_paper_numbers;
          Alcotest.test_case "fig8 rejects lazy dynamic" `Quick
            test_fig8_shapes_reject_lazy_dynamic;
          Alcotest.test_case "batching shapes" `Quick test_batching_shapes;
        ] );
    ]
