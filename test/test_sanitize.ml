(* End-to-end sanitizer runs: every paper experiment (figs 4-9), a
   worker-pool churn run and the randomized crash harness, executed
   small-scale with the race detector and isolation checker enabled, must
   match the golden digest of the plain run (golden.ml): probes never
   consume virtual time or perturb scheduling.  An isolation violation
   raises, and the digest covers every result's [races] count, which the
   plain run records as 0, so a match also proves zero race reports. *)

let check s () = ignore (Golden.check s Golden.Sanitize)

(* The crash harness spins up two engines per seed (run + recovery); both
   must stay silent, and every seed must still pass. *)
let test_crash_seeds () =
  let outcomes = Golden.check Golden.crash Golden.Sanitize in
  Alcotest.(check bool) "crash: all seeds still pass" true
    (List.for_all Wafl_harness.Crash.passed outcomes)

let () =
  Alcotest.run "sanitize"
    [
      ( "experiments",
        [
          Alcotest.test_case "fig4" `Slow (check Golden.fig4);
          Alcotest.test_case "fig5" `Slow (check Golden.fig5);
          Alcotest.test_case "fig6" `Slow (check Golden.fig6);
          Alcotest.test_case "fig7" `Slow (check Golden.fig7);
          Alcotest.test_case "fig8" `Slow (check Golden.fig8);
          Alcotest.test_case "fig9" `Slow (check Golden.fig9);
        ] );
      (* Enough concurrent clients to grow and recycle the scheduler's
         worker pool. *)
      ( "scheduler",
        [ Alcotest.test_case "worker-pool churn" `Slow (check Golden.pool_churn) ] );
      ("crash", [ Alcotest.test_case "five seeds" `Slow test_crash_seeds ]);
    ]
