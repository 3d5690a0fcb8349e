(* Overload robustness tests: NVLog watermark back-pressure, the
   back-to-back-CP regime, open-loop driver determinism, and the crash
   harness's overload mode.  Small geometry and short windows keep these
   fast; the full-scale behavior lives in the `overload` experiment. *)

open Wafl_workload

(* One hot bursty tenant and two polite victims, each on its own volume,
   against a deliberately small NVRAM (golden.ml, which pins its runs). *)
let open_spec = Golden.open_spec

(* The QoS-on overload run, asserted against its golden where first
   used, and shared by the QoS tests. *)
let qos_on = lazy (Golden.check Golden.open_qos Golden.Plain)

(* --- the back-to-back-CP regime ------------------------------------------ *)

let test_small_nvram_peak_enters_b2b () =
  (* Figure 8's setup in miniature: OLTP peak load (closed loop, full
     tilt) against a small NVRAM.  The second log half must fill before
     the previous CP commits, i.e. the run enters the back-to-back-CP
     regime the paper describes for peak load. *)
  let r =
    Driver.run
      {
        Driver.default_spec with
        Driver.cores = 8;
        workload = Driver.Oltp { file_blocks = 1024; read_fraction = 0.67 };
        clients = 8;
        volumes = 2;
        geometry = Driver.small_geometry ();
        nvlog_half = 256;
        warmup = 60_000.0;
        measure = 250_000.0;
        cfg = { Wafl_core.Walloc.default_config with cp_timer = Some 100_000.0 };
      }
  in
  Alcotest.(check bool)
    (Printf.sprintf "back-to-back CPs at peak (%d)" r.Driver.b2b_cps)
    true (r.Driver.b2b_cps > 0);
  Alcotest.(check bool) "episodes group consecutive b2b CPs" true
    (r.Driver.b2b_episodes > 0 && r.Driver.b2b_episodes <= r.Driver.b2b_cps)

(* --- watermarks make NVRAM exhaustion unreachable ------------------------ *)

let test_exhaustion_reachable_without_watermarks () =
  (* The hazard is real: open-loop bursts against the legacy half-full
     throttle alone can outrun CP drain and hit Nvlog.Exhausted (surfaced
     as refused writes, never an abort). *)
  let r = Driver.run (open_spec ~watermarks:None ~nvlog_half:64 ()) in
  Alcotest.(check bool)
    (Printf.sprintf "exhaustion observed without watermarks (%d refusals)"
       r.Driver.nvlog_exhausted)
    true
    (r.Driver.nvlog_exhausted > 0)

let test_watermarks_make_exhaustion_unreachable () =
  (* Satellite regression: the same overload with watermark admission
     never reaches the exhaustion fault — back-pressure (visible as
     client stall time) takes the hit instead. *)
  let r = Driver.run (open_spec ~nvlog_half:64 ()) in
  Alcotest.(check int) "no exhausted writes with watermarks" 0 r.Driver.nvlog_exhausted;
  Alcotest.(check bool) "back-pressure engaged (stall time observed)" true
    (r.Driver.stall_us > 0.0)

(* --- QoS semantics under overload ---------------------------------------- *)

let test_qos_sheds_hot_tenant_only () =
  let r = Lazy.force qos_on in
  Alcotest.(check int) "three tenants accounted" 3 (Array.length r.Driver.tenants);
  let h = r.Driver.tenants.(0) in
  Alcotest.(check bool)
    (Printf.sprintf "hot tenant shed (%d of %d offered)" h.Driver.t_shed h.Driver.t_offered)
    true (h.Driver.t_shed > 0);
  Array.iteri
    (fun i t ->
      if i > 0 then
        Alcotest.(check int) (Printf.sprintf "victim %d never shed" i) 0 t.Driver.t_shed;
      Alcotest.(check int)
        (Printf.sprintf "tenant %d: offered = admitted + shed" i)
        t.Driver.t_offered
        (t.Driver.t_admitted + t.Driver.t_shed);
      Alcotest.(check bool)
        (Printf.sprintf "tenant %d: completions bounded by admissions" i)
        true
        (t.Driver.t_completed <= t.Driver.t_admitted))
    r.Driver.tenants;
  (* Whole-run totals agree with the per-tenant view. *)
  let sum f = Array.fold_left (fun a t -> a + f t) 0 r.Driver.tenants in
  Alcotest.(check int) "offered total" r.Driver.offered_ops (sum (fun t -> t.Driver.t_offered));
  Alcotest.(check int) "shed total" r.Driver.shed_ops (sum (fun t -> t.Driver.t_shed));
  Alcotest.(check int) "throttled total" r.Driver.throttled_ops
    (sum (fun t -> t.Driver.t_throttled));
  Alcotest.(check int) "completed total" r.Driver.ops (sum (fun t -> t.Driver.t_completed))

let test_qos_bounds_backlog () =
  let backlog (r : Driver.result) =
    let h = r.Driver.tenants.(0) in
    h.Driver.t_admitted - h.Driver.t_completed
  in
  let off = Driver.run (open_spec ()) in
  let on = Lazy.force qos_on in
  Alcotest.(check bool)
    (Printf.sprintf "qos bounds the hot backlog (%d off vs %d on)" (backlog off) (backlog on))
    true
    (backlog on * 5 < backlog off)

let test_fair_cp_admission () =
  (* Fair CP admission (Walloc.config.fair_cp): per-volume work units are
     round-robined through Wafl_qos.Fair.interleave.  The reordering must
     leave the run deterministic (it matches its golden) and the CP
     pipeline fully functional. *)
  let fair = Golden.check Golden.fair_cp Golden.Plain in
  Alcotest.(check bool) "CPs complete under fair admission" true (fair.Driver.cps_completed > 0);
  Alcotest.(check bool) "cleaning happens under fair admission" true
    (fair.Driver.buffers_cleaned > 0);
  Alcotest.(check int) "still no exhausted writes" 0 fair.Driver.nvlog_exhausted

(* --- determinism and observer invisibility -------------------------------- *)

(* Each seed's run matches the digest recorded in another process. *)
let test_open_loop_replay_identity () =
  List.iter (fun s -> ignore (Golden.check s Golden.Plain)) Golden.open_qos_seeds

(* The digest covers [races], 0 in the plain run: no reports either. *)
let test_open_loop_sanitize_bit_identity () = ignore (Golden.check Golden.open_qos Golden.Sanitize)

let test_open_loop_causal_bit_identity () = ignore (Golden.check Golden.open_qos Golden.Causal)

(* --- crash harness overload mode ------------------------------------------ *)

let test_crash_overload_seeds () =
  let outcomes =
    Wafl_harness.Crash.run_seeds ~overload:true ~first_seed:7000 ~count:3 ()
  in
  List.iter
    (fun o ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: no acked write lost, fsck clean" o.Wafl_harness.Crash.seed)
        true
        (Wafl_harness.Crash.passed o);
      Alcotest.(check int)
        (Printf.sprintf "seed %d: watermarks held admission back" o.Wafl_harness.Crash.seed)
        0 o.Wafl_harness.Crash.exhausted_writes)
    outcomes;
  (* The point of the mode: crash points land inside overload windows. *)
  Alcotest.(check bool) "overload pressure observed across seeds" true
    (List.exists
       (fun o -> o.Wafl_harness.Crash.b2b_cps > 0 || o.Wafl_harness.Crash.stall_us > 0.0)
       outcomes)

let () =
  Alcotest.run "wafl_overload"
    [
      ( "back-pressure",
        [
          Alcotest.test_case "small-NVRAM peak enters the B2B regime" `Quick
            test_small_nvram_peak_enters_b2b;
          Alcotest.test_case "exhaustion reachable without watermarks" `Quick
            test_exhaustion_reachable_without_watermarks;
          Alcotest.test_case "watermarks make exhaustion unreachable" `Quick
            test_watermarks_make_exhaustion_unreachable;
        ] );
      ( "qos",
        [
          Alcotest.test_case "sheds the hot tenant only" `Quick test_qos_sheds_hot_tenant_only;
          Alcotest.test_case "bounds the hot backlog" `Quick test_qos_bounds_backlog;
          Alcotest.test_case "fair CP admission" `Quick test_fair_cp_admission;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "open-loop replay identity" `Quick test_open_loop_replay_identity;
          Alcotest.test_case "sanitize bit-identity" `Quick test_open_loop_sanitize_bit_identity;
          Alcotest.test_case "causal-trace bit-identity" `Quick test_open_loop_causal_bit_identity;
        ] );
      ( "crash",
        [ Alcotest.test_case "crash --overload seeds pass" `Quick test_crash_overload_seeds ] );
    ]
