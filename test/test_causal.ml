(* Wafl_obs.Causal: causal edges, the trace analyzer, and the guarantees
   the tentpole rests on.

   Four legs: (1) every causal trace of a figure run parses into a
   connected, acyclic DAG whose per-CP critical paths cover the whole CP
   interval; (2) causal tracing is deterministic (same seed, byte-equal
   trace) and invisible (results bit-identical with causal tracing on and
   off); (3) pooled worker fibers reset their span stack and causal
   context between messages, so state leaked by one message cannot attach
   to the next; (4) ring-buffer drops are surfaced through the analyzer
   so a truncated trace is never mistaken for a complete one. *)

module H = Wafl_harness
module Driver = Wafl_workload.Driver
module Engine = Wafl_sim.Engine
module Trace = Wafl_obs.Trace
module Causal = Wafl_obs.Causal
module Sched = Wafl_waffinity.Scheduler
module Aff = Wafl_waffinity.Affinity

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let scale = 0.02

(* --- pooled workers must not leak spans or contexts across messages ------ *)

let profile_total rows key =
  match List.find_opt (fun (k, _, _) -> k = key) rows with
  | Some (_, total, _) -> total
  | None -> 0.0

let test_worker_reset () =
  let eng = Engine.create ~cores:1 () in
  let t = Trace.create ~sample_interval:0.0 ~causal:true eng in
  let sched = Sched.create ~workers:1 ~obs:t eng ~cost:Wafl_sim.Cost.default () in
  ignore
    (Engine.spawn eng ~label:"poster" (fun () ->
         (* Message A opens a span it never closes — a bug in a message
            body.  Serial affinity forces both messages onto the same
            pooled worker fiber, back to back. *)
         Sched.post sched ~affinity:Aff.Serial ~label:"test" (fun () ->
             Trace.begin_span t ~cat:"test" ~name:"leaked";
             Engine.consume 5.0);
         Sched.post sched ~affinity:Aff.Serial ~label:"test" (fun () ->
             Engine.consume 7.0);
         Sched.drain sched));
  Engine.run eng;
  let rows = Trace.profile_rows t in
  (* A's charge lands under the leaked span... *)
  Alcotest.(check (float 1e-6)) "A charged under its leaked span" 5.0
    (profile_total rows "msg serial/leaked");
  (* ...but B starts from a clean stack: its charge sits directly under
     its own message span, not under A's leftovers. *)
  Alcotest.(check (float 1e-6)) "B charged under its own span only" 7.0
    (profile_total rows "msg serial");
  Alcotest.(check bool) "no doubled message-span path" false
    (List.exists (fun (k, _, _) -> contains k "msg serial/msg serial") rows);
  Alcotest.(check bool) "no leak onto B's path" false
    (List.exists (fun (k, _, _) -> contains k "leaked/msg serial") rows)

(* --- figure traces form connected, acyclic causal DAGs ------------------- *)

let causal_fig name f =
  let last = ref Trace.disabled in
  let obs eng =
    let t = Trace.create ~causal:true eng in
    last := t;
    t
  in
  ignore (f (H.Exp.context ~scale ~obs ()));
  let json = Trace.export_string !last in
  match Causal.analyze_string json with
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

let test_dag_fig4 () = ignore (causal_fig "fig4" H.Fig4.run)

let test_dag_fig5 () =
  ignore (causal_fig "fig5" (H.Fig5.run ~thread_counts:[ 1; 4 ]))

let test_dag_fig6 () =
  let a = causal_fig "fig6" H.Fig6.run in
  (* The bottleneck table attributes the whole walked critical path. *)
  Alcotest.(check bool) "fig6: bottlenecks non-empty" true (a.Causal.a_bottlenecks <> []);
  Alcotest.(check bool) "fig6: write ops decomposed" true
    (List.exists (fun o -> o.Causal.o_name = "write" && o.Causal.o_count > 0) a.Causal.a_ops);
  let txt = Causal.render a in
  Alcotest.(check bool) "fig6: render names a critical path" true
    (contains txt "critical path: CP");
  Alcotest.(check bool) "fig6: render has the bottleneck table" true
    (contains txt "bottleneck")

let test_dag_fig7 () = ignore (causal_fig "fig7" H.Fig7.run)
let test_dag_fig8 () = ignore (causal_fig "fig8" H.Fig8.run)

let test_dag_fig9 () =
  ignore (causal_fig "fig9" (H.Fig9.run ~levels:2))

(* --- determinism and invisibility ---------------------------------------- *)

let causal_traced_run seed =
  let tracer = ref Trace.disabled in
  let spec =
    {
      (H.Exp.spec_base ~scale) with
      Driver.seed;
      obs =
        (fun eng ->
          let t = Trace.create ~causal:true eng in
          tracer := t;
          t);
    }
  in
  let r = Driver.run spec in
  (r, !tracer)

let test_causal_deterministic () =
  let r1, t1 = causal_traced_run 7 in
  let r2, t2 = causal_traced_run 7 in
  Alcotest.(check bool) "same-seed results identical" true (r1 = r2);
  Alcotest.(check string) "same-seed causal traces byte-identical"
    (Trace.export_string t1) (Trace.export_string t2)

(* Runs [f] untraced, then causally traced; results must be bit-equal —
   causal recording never consumes virtual time, never schedules and
   never draws randomness. *)
let check_fig_causal name f =
  let off = f (H.Exp.context ~scale ()) in
  let on = f (H.Exp.context ~scale ~obs:(fun eng -> Trace.create ~causal:true eng) ()) in
  Alcotest.(check bool) (name ^ ": causal run bit-identical") true (off = on)

let test_causal_off_vs_on_fig4 () =
  check_fig_causal "fig4" H.Fig4.run

let test_causal_off_vs_on_fig6 () =
  check_fig_causal "fig6" H.Fig6.run

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
      ( "workers",
        [
          Alcotest.test_case "pooled worker resets span stack and context between messages"
            `Quick test_worker_reset;
        ] );
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
            test_causal_off_vs_on_fig4;
          Alcotest.test_case "fig6 bit-identical with causal tracing" `Slow
            test_causal_off_vs_on_fig6;
        ] );
      ( "completeness",
        [ Alcotest.test_case "ring drops surfaced by the analyzer" `Quick test_drops_surfaced ] );
    ]
