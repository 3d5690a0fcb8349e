(* End-to-end sanitizer runs: every paper experiment (figs 4-9) and the
   randomized crash harness, executed small-scale with the race detector
   and isolation checker enabled, must (a) report zero races and raise
   zero isolation violations, and (b) produce bit-identical results to
   the unsanitized run — probes must never consume virtual time or
   perturb scheduling. *)

module H = Wafl_harness
module Driver = Wafl_workload.Driver

let scale = 0.02

(* Runs [f] under an unsanitized then a sanitized context; returns both
   values. *)
let both f =
  let off = f (H.Exp.context ~scale ()) in
  let on = f (H.Exp.context ~scale ~sanitize:true ()) in
  (off, on)

let check_fig name f races_of =
  let off, on = both f in
  Alcotest.(check int) (name ^ ": zero race reports under sanitize") 0 (races_of on);
  (* Polymorphic equality over the full row structure: every counter,
     float and latency histogram must match exactly. *)
  Alcotest.(check bool) (name ^ ": sanitized run bit-identical") true (off = on)

let sum_results races rows = List.fold_left (fun acc r -> acc + races r) 0 rows
let perms_races = sum_results (fun (r : H.Perms.row) -> r.H.Perms.result.Driver.races)

let test_fig4 () = check_fig "fig4" H.Fig4.run perms_races

let test_fig5 () =
  check_fig "fig5"
    (fun ctx -> H.Fig5.run ~thread_counts:[ 1; 4 ] ctx)
    (sum_results (fun (r : H.Fig5.row) -> r.H.Fig5.result.Driver.races))

let test_fig6 () =
  check_fig "fig6" H.Fig6.run
    (sum_results (fun (r : H.Fig6.row) -> r.H.Fig6.result.Driver.races))

let test_fig7 () = check_fig "fig7" H.Fig7.run perms_races

let test_fig8 () =
  check_fig "fig8" H.Fig8.run
    (sum_results (fun (r : H.Fig8.row) ->
         r.H.Fig8.peak.Driver.races + r.H.Fig8.knee.Driver.races))

let test_fig9 () =
  check_fig "fig9"
    (fun ctx -> H.Fig9.run ~levels:2 ctx)
    (sum_results (fun (s : H.Fig9.series) ->
         sum_results (fun (p : H.Fig9.point) -> p.H.Fig9.result.Driver.races) s.H.Fig9.points))

(* The crash harness spins up two engines per seed (run + recovery); both
   must stay silent, and the whole outcome must be unaffected. *)
(* Enough concurrent clients to grow and recycle the scheduler's worker
   pool: the sanitizer must stay silent and the outcome must match the
   unsanitized run exactly. *)
let test_worker_pool_churn () =
  let spec = { (H.Exp.spec_base ~scale:0.02) with Driver.clients = 24; seed = 11 } in
  let off, on = both (fun ctx -> H.Exp.run ctx spec) in
  Alcotest.(check int) "pool churn: zero race reports" 0 on.Driver.races;
  Alcotest.(check bool) "pool churn: sanitized run bit-identical" true (off = on)

let test_crash_seeds () =
  let run sanitize =
    H.Crash.run_seeds ~ops:20_000 ~horizon:20_000.0 ~sanitize ~first_seed:1 ~count:5 ()
  in
  let off = run false and on = run true in
  Alcotest.(check int) "crash: zero race reports under sanitize" 0
    (List.fold_left (fun acc o -> acc + o.H.Crash.races) 0 on);
  Alcotest.(check bool) "crash: all seeds still pass" true (List.for_all H.Crash.passed on);
  Alcotest.(check bool) "crash: sanitized outcomes bit-identical" true (off = on)

let () =
  Alcotest.run "sanitize"
    [
      ( "experiments",
        [
          Alcotest.test_case "fig4" `Slow test_fig4;
          Alcotest.test_case "fig5" `Slow test_fig5;
          Alcotest.test_case "fig6" `Slow test_fig6;
          Alcotest.test_case "fig7" `Slow test_fig7;
          Alcotest.test_case "fig8" `Slow test_fig8;
          Alcotest.test_case "fig9" `Slow test_fig9;
        ] );
      ( "scheduler",
        [ Alcotest.test_case "worker-pool churn" `Slow test_worker_pool_churn ] );
      ("crash", [ Alcotest.test_case "five seeds" `Slow test_crash_seeds ]);
    ]
