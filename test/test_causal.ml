(* Wafl_obs.Causal: causal edges, the trace analyzer, and the guarantees
   the tentpole rests on.

   Three legs: (1) every causal trace of a figure run parses into a
   connected, acyclic DAG whose per-CP critical paths cover the whole CP
   interval; (2) causal tracing is deterministic (the same-seed trace
   matches its golden digest) and invisible (traced results match the
   plain runs' goldens, golden.ml); (3) ring-buffer drops are surfaced
   through the analyzer so a truncated trace is never mistaken for a
   complete one. *)

module H = Wafl_harness
module Driver = Wafl_workload.Driver
module Trace = Wafl_obs.Trace
module Causal = Wafl_obs.Causal

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let scale = 0.02

(* --- figure traces form connected, acyclic causal DAGs ------------------- *)

(* Runs [s] causally traced; returns its value and the analysis of its
   last run's trace (the tracer itself is dropped: a causal ring is
   large). *)
let causal_run s =
  let v, t = Golden.run s Golden.Causal in
  (v, Causal.analyze_string (Trace.export_string t))

let check_dag name = function
  | Error e -> Alcotest.fail (name ^ ": analyze failed: " ^ e)
  | Ok a ->
      Alcotest.(check bool) (name ^ ": acyclic") true a.Causal.a_acyclic;
      Alcotest.(check int) (name ^ ": no ring drops") 0 a.Causal.a_dropped;
      Alcotest.(check int) (name ^ ": every finish has its start") 0
        a.Causal.a_orphan_finishes;
      Alcotest.(check bool) (name ^ ": causal edges present") true (a.Causal.a_edges > 0);
      Alcotest.(check bool) (name ^ ": checkpoints present") true (a.Causal.a_cps <> []);
      List.iter
        (fun p ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: CP @ %.0fus critical path connected" name p.Causal.p_ts)
            true
            (p.Causal.p_coverage >= 0.99))
        a.Causal.a_cps;
      a

(* The traced rows must also match the plain run's golden. *)
let causal_fig name s =
  let v, a = causal_run s in
  Golden.expect s Golden.Causal v;
  ignore (check_dag name a)

(* Figs 4 and 6 serve both the DAG checks and the golden checks below
   from one causally traced run each. *)
let fig4_causal = lazy (causal_run Golden.fig4)
let fig6_causal = lazy (causal_run Golden.fig6)
let test_dag_fig4 () = ignore (check_dag "fig4" (snd (Lazy.force fig4_causal)))
let test_dag_fig5 () = causal_fig "fig5" Golden.fig5

let test_dag_fig6 () =
  let a = check_dag "fig6" (snd (Lazy.force fig6_causal)) in
  (* The bottleneck table attributes the whole walked critical path. *)
  Alcotest.(check bool) "fig6: bottlenecks non-empty" true (a.Causal.a_bottlenecks <> []);
  Alcotest.(check bool) "fig6: write ops decomposed" true
    (List.exists (fun o -> o.Causal.o_name = "write" && o.Causal.o_count > 0) a.Causal.a_ops);
  let txt = Causal.render a in
  Alcotest.(check bool) "fig6: render names a critical path" true
    (contains txt "critical path: CP");
  Alcotest.(check bool) "fig6: render has the bottleneck table" true
    (contains txt "bottleneck")

let test_dag_fig7 () = causal_fig "fig7" Golden.fig7
let test_dag_fig8 () = causal_fig "fig8" Golden.fig8
let test_dag_fig9 () = causal_fig "fig9" Golden.fig9

(* --- determinism and invisibility ---------------------------------------- *)

(* The causally traced run's result matches the plain run's golden, and
   its causal trace export matches the export recorded in another
   process. *)
let test_causal_deterministic () = ignore (Golden.check Golden.same_seed Golden.Causal)

(* Causal recording never consumes virtual time, never schedules and
   never draws randomness: the traced figures match the plain goldens. *)
let test_causal_fig4 () = Golden.expect Golden.fig4 Golden.Causal (fst (Lazy.force fig4_causal))
let test_causal_fig6 () = Golden.expect Golden.fig6 Golden.Causal (fst (Lazy.force fig6_causal))

(* --- ring drops are surfaced, never silent ------------------------------- *)

let test_drops_surfaced () =
  let tracer = ref Trace.disabled in
  let spec =
    {
      (H.Exp.spec_base ~scale) with
      Driver.seed = 3;
      obs =
        (fun eng ->
          let t = Trace.create ~ring_capacity:256 ~causal:true eng in
          tracer := t;
          t);
    }
  in
  ignore (Driver.run spec);
  let t = !tracer in
  Alcotest.(check bool) "tiny ring dropped events" true (Trace.dropped t > 0);
  match Causal.analyze_string (Trace.export_string t) with
  | Error e -> Alcotest.fail ("analyze failed: " ^ e)
  | Ok a ->
      Alcotest.(check int) "drop count exported in trace metadata" (Trace.dropped t)
        a.Causal.a_dropped;
      Alcotest.(check bool) "render warns about the incomplete trace" true
        (contains (Causal.render a) "WARNING")

let () =
  Alcotest.run "causal"
    [
      ( "dag",
        [
          Alcotest.test_case "fig4 trace is a connected acyclic DAG" `Slow test_dag_fig4;
          Alcotest.test_case "fig5 trace is a connected acyclic DAG" `Slow test_dag_fig5;
          Alcotest.test_case "fig6 trace analyzes end to end" `Slow test_dag_fig6;
          Alcotest.test_case "fig7 trace is a connected acyclic DAG" `Slow test_dag_fig7;
          Alcotest.test_case "fig8 trace is a connected acyclic DAG" `Slow test_dag_fig8;
          Alcotest.test_case "fig9 trace is a connected acyclic DAG" `Slow test_dag_fig9;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, byte-identical causal trace" `Slow
            test_causal_deterministic;
          Alcotest.test_case "fig4 bit-identical with causal tracing" `Slow
            test_causal_fig4;
          Alcotest.test_case "fig6 bit-identical with causal tracing" `Slow
            test_causal_fig6;
        ] );
      ( "completeness",
        [ Alcotest.test_case "ring drops surfaced by the analyzer" `Quick test_drops_surfaced ] );
    ]
