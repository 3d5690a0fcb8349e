(* Wafl_obs: span tracer, metrics registry, trace export and the
   observe-only guarantee.

   The subsystem's contract has three legs: (1) spans and the
   virtual-CPU profile attribute correctly across fiber switches,
   (2) the Chrome trace-event export is well-formed JSON and
   deterministic for a given seed (it matches its golden digest), and
   (3) attaching a tracer never changes simulation results — every
   paper experiment traced matches the plain run's golden (golden.ml). *)

module Engine = Wafl_sim.Engine
module Trace = Wafl_obs.Trace
module Metrics = Wafl_obs.Metrics
module Json = Wafl_obs.Json

(* --- spans and the virtual-CPU profile ----------------------------------- *)

let profile_total rows key =
  match List.find_opt (fun (k, _, _) -> k = key) rows with
  | Some (_, total, _) -> total
  | None -> 0.0

let test_span_nesting () =
  let eng = Engine.create ~cores:2 () in
  let t = Trace.create ~sample_interval:0.0 eng in
  ignore
    (Engine.spawn eng ~label:"a" (fun () ->
         Trace.with_span t ~cat:"test" ~name:"outer" (fun () ->
             Engine.consume 5.0;
             Trace.with_span t ~cat:"test" ~name:"inner" (fun () ->
                 Engine.consume 7.0;
                 (* A sleep switches fibers mid-span: frames are per-fiber,
                    so attribution must survive the interleaving. *)
                 Engine.sleep 3.0;
                 Engine.consume 2.0))));
  ignore
    (Engine.spawn eng ~label:"b" (fun () ->
         Trace.with_span t ~cat:"test" ~name:"other" (fun () -> Engine.consume 11.0);
         Engine.consume 1.0));
  Engine.run eng;
  let rows = Trace.profile_rows t in
  Alcotest.(check (float 1e-6)) "outer self-charges" 5.0 (profile_total rows "outer");
  Alcotest.(check (float 1e-6)) "nested stack path" 9.0 (profile_total rows "outer/inner");
  Alcotest.(check (float 1e-6)) "sibling fiber" 11.0 (profile_total rows "other");
  Alcotest.(check (float 1e-6)) "outside any span" 1.0 (profile_total rows "fiber:b");
  Alcotest.(check int) "three span events" 3 (Trace.event_count t);
  (* The table renders without blowing up and mentions the hot row. *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let tbl = Trace.profile_table ~top:2 t in
  Alcotest.(check bool) "table has top row" true (contains tbl "other")

let test_span_exception () =
  let eng = Engine.create ~cores:1 () in
  let t = Trace.create ~sample_interval:0.0 eng in
  ignore
    (Engine.spawn eng ~label:"boom" (fun () ->
         (try Trace.with_span t ~cat:"test" ~name:"raises" (fun () -> raise Exit)
          with Exit -> ());
         (* The frame must have been popped: this charge is span-free. *)
         Engine.consume 4.0));
  Engine.run eng;
  Alcotest.(check int) "span recorded despite raise" 1 (Trace.event_count t);
  Alcotest.(check (float 1e-6)) "stack popped on raise" 4.0
    (profile_total (Trace.profile_rows t) "fiber:boom")

(* --- metrics registry ---------------------------------------------------- *)

let test_metrics () =
  let m = Metrics.create () in
  let c = Metrics.counter m "a.count" in
  Metrics.incr c;
  Metrics.add c 4;
  (* Find-or-create: the same name is the same instrument. *)
  Metrics.incr (Metrics.counter m "a.count");
  Alcotest.(check (float 1e-9)) "counter accumulates" 6.0 (Metrics.counter_value m "a.count");
  let g = Metrics.gauge m "b.gauge" in
  Metrics.set g 3.0;
  Metrics.set g 2.5;
  Alcotest.(check (float 1e-9)) "gauge keeps last" 2.5 (Metrics.gauge_value m "b.gauge");
  let h = Metrics.histogram m "c.histo" in
  for i = 1 to 100 do
    Metrics.observe h (float_of_int i)
  done;
  (match Metrics.histo m "c.histo" with
  | None -> Alcotest.fail "histogram not found"
  | Some hh ->
      Alcotest.(check int) "histogram count" 100 (Wafl_util.Histogram.count hh);
      let p50 = Wafl_util.Histogram.percentile hh 50.0 in
      let p99 = Wafl_util.Histogram.percentile hh 99.0 in
      Alcotest.(check bool) "p50 in band" true (p50 > 30.0 && p50 < 70.0);
      Alcotest.(check bool) "p99 above p50" true (p99 > p50));
  Alcotest.(check (list string)) "sorted iteration"
    [ "a.count" ]
    (List.map fst (Metrics.counters m));
  Alcotest.(check (float 1e-9)) "missing name reads 0" 0.0 (Metrics.counter_value m "nope");
  Alcotest.(check bool) "disabled tracer is disabled" false (Trace.enabled Trace.disabled);
  (* A tracer that records nothing is bound to its engine's registry. *)
  let eng = Engine.create ~cores:1 () in
  let off = Trace.metrics_only eng in
  Alcotest.(check bool) "metrics-only tracer records nothing" false (Trace.enabled off);
  Alcotest.(check bool) "its registry is the engine's" true
    (Trace.metrics off == Engine.metrics eng)

(* The suites' checked reader: where the registry reads an unknown name
   as 0, [Reg] fails the test, so a misspelt name cannot pass a check
   that expects 0. *)
let test_checked_reader () =
  let eng = Engine.create ~cores:1 () in
  let m = Engine.metrics eng in
  ignore (Metrics.counter m "raid.ios");
  ignore (Metrics.histogram m "tetris.fill_blocks");
  Alcotest.(check int) "registered counter reads" 0 (Reg.count eng "raid.ios");
  Alcotest.(check int) "registered histogram reads" 0 (Reg.histo_count eng "tetris.fill_blocks");
  let fails f =
    Alcotest.match_raises "misspelt name fails" (fun _ -> true) (fun () -> ignore (f ()))
  in
  fails (fun () -> Reg.count eng "raid.iso");
  fails (fun () -> Reg.histo_count eng "tetris.fil_blocks")

(* Pull instruments: a component publishes a value it keeps anyway. *)
let test_pull_instruments () =
  let m = Metrics.create () in
  (* Same-name pulls sum in registration order: left to right, 1.0 is
     absorbed by 1e16 and the sum is 0; summed in reverse it is 1. *)
  List.iter (fun v -> Metrics.pull_counter m "p.sum" (fun () -> v)) [ 1.0; 1e16; -1e16 ];
  Alcotest.(check (float 0.0)) "summed in registration order" 0.0
    (Metrics.counter_value m "p.sum");
  let cell = ref 2 in
  Metrics.pull_counter m "b.pulled" (fun () -> float_of_int !cell);
  Metrics.incr (Metrics.counter m "c.pushed");
  Metrics.incr (Metrics.counter m "a.pushed");
  cell := 5;
  Alcotest.(check (list (pair string (float 0.0)))) "pulled and pushed, sorted by name"
    [ ("a.pushed", 1.0); ("b.pulled", 5.0); ("c.pushed", 1.0); ("p.sum", 0.0) ]
    (Metrics.counters m);
  Metrics.pull_gauge m "g" (fun () -> 1.0);
  Metrics.pull_gauge m "g" (fun () -> 1.0);
  Alcotest.(check (float 0.0)) "pull gauges sum" 2.0 (Metrics.gauge_value m "g");
  Alcotest.check_raises "one name is pushed or pulled, never both"
    (Invalid_argument "Metrics: c.pushed is both pushed and pulled") (fun () ->
      Metrics.pull_counter m "c.pushed" (fun () -> 0.0));
  (* Each engine owns its registry: same-name pulls on two engines
     neither sum nor show up on the other. *)
  let a = Engine.create ~cores:1 () and b = Engine.create ~cores:1 () in
  Metrics.pull_counter (Engine.metrics a) "engine.pull" (fun () -> 1.0);
  Metrics.pull_counter (Engine.metrics b) "engine.pull" (fun () -> 2.0);
  Metrics.pull_gauge (Engine.metrics a) "engine.gauge" (fun () -> 3.0);
  Alcotest.(check (float 0.0)) "engine a reads its own pull" 1.0
    (Metrics.counter_value (Engine.metrics a) "engine.pull");
  Alcotest.(check (float 0.0)) "engine b reads its own pull" 2.0
    (Metrics.counter_value (Engine.metrics b) "engine.pull");
  Alcotest.(check (list string)) "engine b sees no gauge of engine a" []
    (List.map fst (Metrics.gauges (Engine.metrics b)))

let test_ring_drop () =
  let eng = Engine.create ~cores:1 () in
  let t = Trace.create ~ring_capacity:8 ~sample_interval:0.0 eng in
  ignore
    (Engine.spawn eng (fun () ->
         for i = 1 to 20 do
           Trace.instant t ~cat:"test" ~name:(string_of_int i) ()
         done));
  Engine.run eng;
  Alcotest.(check int) "ring holds capacity" 8 (Trace.event_count t);
  Alcotest.(check int) "oldest dropped, counted" 12 (Trace.dropped t)

(* --- export: well-formed, complete, deterministic ------------------------ *)

(* Export writes the closing counter sample into its output, not into the
   ring: a full ring exports as if the sample had evicted its oldest
   events, and exporting again gives the same document. *)
let test_export_pure () =
  let eng = Engine.create ~cores:1 () in
  let t = Trace.create ~ring_capacity:8 ~sample_interval:1000.0 eng in
  (* With [trace.drops], three metrics: six instants and the sample
     overflow the ring by one. *)
  List.iter (fun name -> Metrics.pull_gauge (Engine.metrics eng) name (fun () -> 1.0)) [ "a"; "b" ];
  ignore
    (Engine.spawn eng (fun () ->
         for i = 1 to 6 do
           Trace.instant t ~cat:"test" ~name:(string_of_int i) ()
         done));
  Engine.run eng;
  let first = Trace.export_string t in
  Alcotest.(check string) "a second export equals the first" first (Trace.export_string t);
  let other field =
    match Json.of_string first with
    | Ok doc ->
        Option.map int_of_float
          (Option.bind (Option.bind (Json.member "otherData" doc) (Json.member field)) Json.to_float)
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check (option int)) "events as if the sample was recorded" (Some 8) (other "events");
  Alcotest.(check (option int)) "the evicted event counted as dropped" (Some 1) (other "dropped");
  Alcotest.(check (pair int int)) "the tracer reports the exported counts" (8, 1)
    (Trace.event_count t, Trace.dropped t)

(* One traced run, exported once, serves the parse test and the golden
   check. *)
let same_seed_traced =
  lazy
    (let r, t = Golden.run Golden.same_seed Golden.Trace in
     (r, t, Trace.export_string t))

let test_export_parses () =
  let _, t, json = Lazy.force same_seed_traced in
  match Json.of_string json with
  | Error msg -> Alcotest.fail ("trace JSON does not parse: " ^ msg)
  | Ok doc ->
      let events =
        match Option.bind (Json.member "traceEvents" doc) Json.to_list with
        | Some l -> l
        | None -> Alcotest.fail "no traceEvents array"
      in
      Alcotest.(check bool) "events recorded" true (List.length events > 0);
      let cat_of ev = Option.bind (Json.member "cat" ev) Json.to_str in
      let has c = List.exists (fun ev -> cat_of ev = Some c) events in
      Alcotest.(check bool) "CP phase spans present" true (has "cp");
      Alcotest.(check bool) "scheduler message spans present" true (has "sched");
      Alcotest.(check bool) "raid io spans present" true (has "raid");
      Alcotest.(check bool) "cleaner work spans present" true (has "cleaner");
      Alcotest.(check bool) "metrics timeseries present" true (has "metrics");
      (* Every event is timestamped in-range and durations are sane. *)
      let horizon =
        match Trace.engine t with Some eng -> Engine.now eng | None -> 0.0
      in
      List.iter
        (fun ev ->
          let num field = Option.bind (Json.member field ev) Json.to_float in
          match num "ts" with
          | None -> () (* metadata events carry no ts *)
          | Some ts ->
              Alcotest.(check bool) "ts within run" true (ts >= 0.0 && ts <= horizon);
              Option.iter
                (fun d -> Alcotest.(check bool) "dur non-negative" true (d >= 0.0))
                (num "dur"))
        events;
      Alcotest.(check bool) "profile non-empty" true (Trace.profile_rows t <> [])

(* The traced run's result matches the plain run's golden, and its trace
   export matches the export recorded in another process. *)
let test_deterministic () =
  let r, _, export = Lazy.force same_seed_traced in
  Golden.expect ~export Golden.same_seed Golden.Trace r

(* Same property with enough concurrent clients to grow the scheduler's
   worker-fiber pool and recycle workers across messages: pool reuse
   must leave no mark on the trace. *)
let test_worker_pool_trace_identical () = ignore (Golden.check Golden.pool_churn Golden.Trace)

(* --- tracing must not change results ------------------------------------- *)

(* Each figure traced (as the CLI's --trace flag would attach it) matches
   the plain run's golden. *)
let check_fig s () = ignore (Golden.check s Golden.Trace)

let () =
  Alcotest.run "obs"
    [
      ( "tracer",
        [
          Alcotest.test_case "span nesting across fiber switches" `Quick test_span_nesting;
          Alcotest.test_case "span closed on exception" `Quick test_span_exception;
          Alcotest.test_case "ring buffer drops oldest" `Quick test_ring_drop;
          Alcotest.test_case "export leaves the ring alone" `Quick test_export_pure;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry" `Quick test_metrics;
          Alcotest.test_case "pull instruments" `Quick test_pull_instruments;
          Alcotest.test_case "checked reader" `Quick test_checked_reader;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace JSON parses back" `Slow test_export_parses;
          Alcotest.test_case "same seed, byte-identical trace" `Slow test_deterministic;
          Alcotest.test_case "worker-pool churn, byte-identical trace" `Slow
            test_worker_pool_trace_identical;
        ] );
      ( "bit-identity",
        [
          Alcotest.test_case "fig4" `Slow (check_fig Golden.fig4);
          Alcotest.test_case "fig5" `Slow (check_fig Golden.fig5);
          Alcotest.test_case "fig6" `Slow (check_fig Golden.fig6);
          Alcotest.test_case "fig7" `Slow (check_fig Golden.fig7);
          Alcotest.test_case "fig8" `Slow (check_fig Golden.fig8);
          Alcotest.test_case "fig9" `Slow (check_fig Golden.fig9);
        ] );
    ]
