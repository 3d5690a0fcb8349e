(* Tests for the Hierarchical Waffinity scheduler: hierarchy relations,
   exclusion rules, parallelism of disjoint affinities, FIFO fairness. *)

open Wafl_sim
open Wafl_waffinity

(* --- Affinity hierarchy --- *)

let test_parent_chain () =
  let open Affinity in
  Alcotest.(check bool) "serial is root" true (parent Serial = None);
  Alcotest.(check bool) "stripe chain" true
    (ancestors (Stripe (0, 1, 2))
    = [ Volume_logical (0, 1); Volume (0, 1); Aggregate 0; Serial ]);
  Alcotest.(check bool) "agg range chain" true
    (ancestors (Agg_range (0, 3)) = [ Aggregate_vbn 0; Aggregate 0; Serial ])

let test_conflicts () =
  let open Affinity in
  (* An affinity conflicts with itself, ancestors and descendants. *)
  Alcotest.(check bool) "self" true (conflicts Serial Serial);
  Alcotest.(check bool) "ancestor" true (conflicts (Volume (0, 1)) (Stripe (0, 1, 5)));
  Alcotest.(check bool) "descendant" true (conflicts (Stripe (0, 1, 5)) (Volume (0, 1)));
  Alcotest.(check bool) "serial vs anything" true (conflicts Serial (Vol_range (0, 2, 3)));
  (* Siblings and cousins run in parallel. *)
  Alcotest.(check bool) "two stripes" false (conflicts (Stripe (0, 1, 1)) (Stripe (0, 1, 2)));
  Alcotest.(check bool) "two volumes" false (conflicts (Volume (0, 1)) (Volume (0, 2)));
  Alcotest.(check bool) "logical vs vbn (the Figure 1 example)" false
    (conflicts (Volume_logical (0, 1)) (Volume_vbn (0, 1)));
  Alcotest.(check bool) "stripe vs vol range" false
    (conflicts (Stripe (0, 1, 0)) (Vol_range (0, 1, 0)));
  Alcotest.(check bool) "agg vbn vs volume" false
    (conflicts (Aggregate_vbn 0) (Volume (0, 1)));
  Alcotest.(check bool) "different aggregates" false (conflicts (Aggregate 0) (Aggregate 1))

let prop_conflicts_symmetric =
  let arb =
    QCheck.make
      (QCheck.Gen.oneof
         [
           QCheck.Gen.return Affinity.Serial;
           QCheck.Gen.map (fun a -> Affinity.Aggregate (a mod 2)) QCheck.Gen.nat;
           QCheck.Gen.map (fun a -> Affinity.Aggregate_vbn (a mod 2)) QCheck.Gen.nat;
           QCheck.Gen.map2 (fun a r -> Affinity.Agg_range (a mod 2, r mod 3)) QCheck.Gen.nat QCheck.Gen.nat;
           QCheck.Gen.map2 (fun a v -> Affinity.Volume (a mod 2, v mod 3)) QCheck.Gen.nat QCheck.Gen.nat;
           QCheck.Gen.map2 (fun a v -> Affinity.Volume_logical (a mod 2, v mod 3)) QCheck.Gen.nat QCheck.Gen.nat;
           QCheck.Gen.map2 (fun a v -> Affinity.Stripe (a mod 2, v mod 3, a mod 5)) QCheck.Gen.nat QCheck.Gen.nat;
           QCheck.Gen.map2 (fun a v -> Affinity.Volume_vbn (a mod 2, v mod 3)) QCheck.Gen.nat QCheck.Gen.nat;
           QCheck.Gen.map2 (fun a v -> Affinity.Vol_range (a mod 2, v mod 3, a mod 5)) QCheck.Gen.nat QCheck.Gen.nat;
         ])
  in
  QCheck.Test.make ~name:"conflicts is symmetric" ~count:300 (QCheck.pair arb arb)
    (fun (x, y) -> Affinity.conflicts x y = Affinity.conflicts y x)

(* --- Scheduler --- *)

let run_sched ?(cores = 8) ?workers f =
  let eng = Engine.create ~cores () in
  let sched = Scheduler.create ?workers eng ~cost:Cost.default () in
  f eng sched;
  Engine.run eng;
  eng

let test_messages_execute () =
  let count = ref 0 in
  let eng =
    run_sched (fun _eng sched ->
        for i = 0 to 9 do
          Scheduler.post sched
            ~affinity:(Affinity.Stripe (0, 0, i mod 4))
            ~label:"client"
            (fun () -> incr count)
        done)
  in
  Alcotest.(check int) "all executed" 10 !count;
  Alcotest.(check int) "stat agrees" 10 (Reg.count eng "sched.messages")

let test_same_affinity_serializes () =
  let eng = Engine.create ~cores:8 () in
  let sched = Scheduler.create eng ~cost:Cost.default () in
  let concurrent = ref 0 and max_concurrent = ref 0 in
  for _ = 1 to 5 do
    Scheduler.post sched ~affinity:(Affinity.Volume_vbn (0, 0)) ~label:"infra" (fun () ->
        incr concurrent;
        if !concurrent > !max_concurrent then max_concurrent := !concurrent;
        Engine.consume 10.0;
        decr concurrent)
  done;
  Engine.run eng;
  Alcotest.(check int) "one at a time" 1 !max_concurrent

let test_disjoint_affinities_parallel () =
  let eng = Engine.create ~cores:8 () in
  let sched = Scheduler.create eng ~cost:Cost.default () in
  let concurrent = ref 0 and max_concurrent = ref 0 in
  let body () =
    incr concurrent;
    if !concurrent > !max_concurrent then max_concurrent := !concurrent;
    Engine.consume 50.0;
    decr concurrent
  in
  for s = 0 to 3 do
    Scheduler.post sched ~affinity:(Affinity.Stripe (0, 0, s)) ~label:"client" body
  done;
  Engine.run eng;
  Alcotest.(check int) "four stripes in parallel" 4 !max_concurrent

let test_ancestor_excludes_descendants () =
  let eng = Engine.create ~cores:8 () in
  let sched = Scheduler.create eng ~cost:Cost.default () in
  let trace = ref [] in
  Scheduler.post sched ~affinity:(Affinity.Volume (0, 0)) ~label:"a" (fun () ->
      trace := "volume-start" :: !trace;
      Engine.consume 100.0;
      trace := "volume-end" :: !trace);
  (* Posted later, but must not start while the parent Volume runs. *)
  Scheduler.post sched ~affinity:(Affinity.Stripe (0, 0, 1)) ~label:"b" (fun () ->
      trace := "stripe" :: !trace);
  Scheduler.post sched ~affinity:(Affinity.Volume_vbn (0, 0)) ~label:"c" (fun () ->
      trace := "volume-vbn" :: !trace);
  (* A different volume's work is unaffected and may run concurrently. *)
  Scheduler.post sched ~affinity:(Affinity.Stripe (0, 1, 0)) ~label:"d" (fun () ->
      trace := "other-vol" :: !trace);
  Engine.run eng;
  let t = List.rev !trace in
  let index x = ref (-1) |> fun r -> List.iteri (fun i y -> if x = y && !r < 0 then r := i) t; !r in
  Alcotest.(check bool) "stripe after volume end" true (index "stripe" > index "volume-end");
  Alcotest.(check bool) "volume-vbn after volume end" true
    (index "volume-vbn" > index "volume-end");
  Alcotest.(check bool) "other volume before volume end" true
    (index "other-vol" < index "volume-end")

let test_running_child_blocks_parent () =
  let eng = Engine.create ~cores:8 () in
  let sched = Scheduler.create eng ~cost:Cost.default () in
  let trace = ref [] in
  Scheduler.post sched ~affinity:(Affinity.Stripe (0, 0, 0)) ~label:"child" (fun () ->
      trace := "child-start" :: !trace;
      Engine.consume 100.0;
      trace := "child-end" :: !trace);
  Scheduler.post sched ~affinity:Affinity.Serial ~label:"parent" (fun () ->
      trace := "serial" :: !trace);
  Engine.run eng;
  Alcotest.(check (list string)) "serial waits for child"
    [ "child-start"; "child-end"; "serial" ]
    (List.rev !trace)

let test_serial_blocks_everything () =
  let eng = Engine.create ~cores:8 () in
  let sched = Scheduler.create eng ~cost:Cost.default () in
  let order = ref [] in
  Scheduler.post sched ~affinity:Affinity.Serial ~label:"serial" (fun () ->
      order := "serial" :: !order;
      Engine.consume 50.0);
  Scheduler.post sched ~affinity:(Affinity.Agg_range (0, 0)) ~label:"x" (fun () ->
      order := "range" :: !order);
  Scheduler.post sched ~affinity:(Affinity.Stripe (0, 5, 3)) ~label:"y" (fun () ->
      order := "stripe" :: !order);
  Engine.run eng;
  Alcotest.(check string) "serial first" "serial" (List.nth (List.rev !order) 0)

let test_worker_cap () =
  let eng = Engine.create ~cores:8 () in
  let sched = Scheduler.create ~workers:2 eng ~cost:Cost.default () in
  let concurrent = ref 0 and max_concurrent = ref 0 in
  for s = 0 to 5 do
    Scheduler.post sched ~affinity:(Affinity.Stripe (0, 0, s)) ~label:"w" (fun () ->
        incr concurrent;
        if !concurrent > !max_concurrent then max_concurrent := !concurrent;
        Engine.consume 10.0;
        decr concurrent)
  done;
  Engine.run eng;
  Alcotest.(check int) "bounded by workers" 2 !max_concurrent

let test_post_wait_returns_value () =
  let eng = Engine.create ~cores:4 () in
  let sched = Scheduler.create eng ~cost:Cost.default () in
  let got = ref 0 in
  ignore
    (Engine.spawn eng ~label:"caller" (fun () ->
         got :=
           Scheduler.post_wait sched ~affinity:(Affinity.Volume_logical (0, 0)) ~label:"m"
             (fun () ->
               Engine.consume 5.0;
               41 + 1)));
  Engine.run eng;
  Alcotest.(check int) "value returned" 42 !got

let test_fifo_among_equal_affinities () =
  let eng = Engine.create ~cores:1 () in
  let sched = Scheduler.create ~workers:1 eng ~cost:Cost.default () in
  let order = ref [] in
  for i = 0 to 4 do
    Scheduler.post sched ~affinity:(Affinity.Volume_vbn (0, 0)) ~label:"m" (fun () ->
        order := i :: !order)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "FIFO" [ 0; 1; 2; 3; 4 ] (List.rev !order)

let test_blocked_message_does_not_block_younger_compatible () =
  let eng = Engine.create ~cores:8 () in
  let sched = Scheduler.create eng ~cost:Cost.default () in
  let order = ref [] in
  (* Long-running stripe blocks a Serial message; a later, unrelated
     aggregate's message must still be granted (no head-of-line block). *)
  Scheduler.post sched ~affinity:(Affinity.Stripe (0, 0, 0)) ~label:"a" (fun () ->
      Engine.consume 100.0;
      order := "long-stripe" :: !order);
  Scheduler.post sched ~affinity:Affinity.Serial ~label:"b" (fun () ->
      order := "serial" :: !order);
  Scheduler.post sched ~affinity:(Affinity.Aggregate 1) ~label:"c" (fun () ->
      order := "agg1" :: !order);
  Engine.run eng;
  Alcotest.(check string) "agg1 ran first" "agg1" (List.nth (List.rev !order) 0)

let test_executed_by_kind () =
  let eng =
    run_sched (fun _eng sched ->
        Scheduler.post sched ~affinity:(Affinity.Stripe (0, 0, 0)) ~label:"x" (fun () -> ());
        Scheduler.post sched ~affinity:(Affinity.Stripe (0, 0, 1)) ~label:"x" (fun () -> ());
        Scheduler.post sched ~affinity:(Affinity.Agg_range (0, 0)) ~label:"x" (fun () -> ()))
  in
  Alcotest.(check (list (pair string int)))
    "kind counts"
    [ ("agg_range", 1); ("stripe", 2) ]
    (Reg.histo_counts eng ~prefix:"sched.service_us.")

let test_drain () =
  let eng = Engine.create ~cores:4 () in
  let sched = Scheduler.create eng ~cost:Cost.default () in
  let drained_after = ref false in
  let done_count = ref 0 in
  for s = 0 to 3 do
    Scheduler.post sched ~affinity:(Affinity.Stripe (0, 0, s)) ~label:"w" (fun () ->
        Engine.consume 25.0;
        incr done_count)
  done;
  ignore
    (Engine.spawn eng ~label:"waiter" (fun () ->
         Scheduler.drain sched;
         drained_after := !done_count = 4));
  Engine.run eng;
  Alcotest.(check bool) "drain saw all done" true !drained_after

(* With one worker every message serializes, so execution order is
   exactly the grant order: for always-grantable (disjoint) affinities
   the dispatcher must pop oldest-posted-first across nodes. *)
let test_fifo_across_nodes () =
  let eng = Engine.create ~cores:8 () in
  let sched = Scheduler.create ~workers:1 eng ~cost:Cost.default () in
  let order = ref [] in
  for i = 0 to 19 do
    Scheduler.post sched
      ~affinity:(Affinity.Stripe (0, 0, i))
      ~label:"m"
      (fun () ->
        Engine.consume 5.0;
        order := i :: !order)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "oldest grantable first" (List.init 20 Fun.id) (List.rev !order)

(* A message that keeps reposting to its own node must not starve an
   older message on another node: each repost gets a fresh (younger)
   sequence number, so the victim's turn comes at the next grant. *)
let test_no_starvation_under_repost_stream () =
  let eng = Engine.create ~cores:8 () in
  let sched = Scheduler.create ~workers:1 eng ~cost:Cost.default () in
  let order = ref [] in
  let reposts = ref 0 in
  let rec chain () =
    order := "chain" :: !order;
    Engine.consume 10.0;
    if !reposts < 20 then begin
      incr reposts;
      Scheduler.post sched ~affinity:(Affinity.Stripe (0, 0, 0)) ~label:"chain" (fun () ->
          chain ())
    end
  in
  Scheduler.post sched ~affinity:(Affinity.Stripe (0, 0, 0)) ~label:"chain" (fun () -> chain ());
  Scheduler.post sched
    ~affinity:(Affinity.Stripe (0, 0, 1))
    ~label:"victim"
    (fun () -> order := "victim" :: !order);
  Engine.run eng;
  let executed = List.rev !order in
  let pos = ref (-1) in
  List.iteri (fun i x -> if x = "victim" then pos := i) executed;
  Alcotest.(check int) "all links and the victim ran" 22 (List.length executed);
  Alcotest.(check bool)
    (Printf.sprintf "victim ran at grant %d, not after the stream" !pos)
    true
    (!pos >= 0 && !pos <= 1)

(* The worker pool recycles fibers across messages; replaying the same
   posts must reproduce the same execution intervals bit-for-bit (the
   property the figure-level identity tests rely on, in isolation). *)
let prop_scheduler_replay_identical =
  let affinity_of r =
    match Wafl_util.Rng.int r 4 with
    | 0 -> Affinity.Stripe (0, 0, Wafl_util.Rng.int r 4)
    | 1 -> Affinity.Volume (0, Wafl_util.Rng.int r 2)
    | 2 -> Affinity.Agg_range (0, Wafl_util.Rng.int r 3)
    | _ -> Affinity.Serial
  in
  QCheck.Test.make ~name:"worker pool replays identically" ~count:50
    QCheck.(int_bound 100_000)
    (fun seed ->
      let run_once () =
        let r = Wafl_util.Rng.create ~seed in
        let eng = Engine.create ~cores:(1 + Wafl_util.Rng.int r 7) () in
        let sched =
          Scheduler.create ~workers:(1 + Wafl_util.Rng.int r 7) eng ~cost:Cost.default ()
        in
        let log = ref [] in
        for i = 0 to 29 do
          let aff = affinity_of r in
          Scheduler.post sched ~affinity:aff ~label:"m" (fun () ->
              let t0 = Engine.now eng in
              Engine.consume (1.0 +. Wafl_util.Rng.float r 20.0);
              log := (i, t0, Engine.now eng) :: !log)
        done;
        Engine.run eng;
        !log
      in
      run_once () = run_once ())

(* --- Classical Waffinity (SIII-B) --- *)

let test_classical_mapping () =
  let open Classical in
  (* Data ops in different stripes parallelize. *)
  Alcotest.(check bool) "different stripes parallel" true
    (parallelizable (User_data { volume = 0; fbn = 0 })
       (User_data { volume = 0; fbn = default_stripe_blocks }));
  (* Same stripe serializes. *)
  Alcotest.(check bool) "same stripe serializes" false
    (parallelizable (User_data { volume = 0; fbn = 0 }) (User_data { volume = 0; fbn = 1 }));
  (* Anything involving metadata excludes everything. *)
  Alcotest.(check bool) "metadata blocks data" false
    (parallelizable Metadata (User_data { volume = 0; fbn = 0 }));
  Alcotest.(check bool) "metadata blocks metadata" false (parallelizable Metadata Metadata);
  Alcotest.(check bool) "spanning ops serialize" false
    (parallelizable (Spanning { volume = 0 }) (Spanning { volume = 1 }))

let test_classical_stripe_rotation () =
  let open Classical in
  (* Stripes rotate: fbn ranges [0, sb) and [sb*stripes, sb*(stripes+1))
     map to the same Stripe affinity instance. *)
  let a0 = affinity_of ~aggregate:0 (User_data { volume = 3; fbn = 0 }) in
  let a_wrap =
    affinity_of ~aggregate:0
      (User_data { volume = 3; fbn = default_stripe_blocks * default_stripes })
  in
  Alcotest.(check bool) "rotation wraps" true (a0 = a_wrap);
  match a0 with
  | Affinity.Stripe (0, 3, 0) -> ()
  | other -> Alcotest.failf "unexpected affinity %s" (Format.asprintf "%a" Affinity.pp other)

(* Property: whatever is posted, two conflicting affinities never execute
   concurrently.  Messages record their (start, end, affinity) intervals
   in virtual time; afterwards every overlapping pair must be
   conflict-free. *)
let prop_no_conflicting_coschedule =
  let gen_aff =
    QCheck.Gen.oneof
      [
        QCheck.Gen.return Affinity.Serial;
        QCheck.Gen.map (fun a -> Affinity.Aggregate (a mod 2)) QCheck.Gen.nat;
        QCheck.Gen.map (fun a -> Affinity.Aggregate_vbn (a mod 2)) QCheck.Gen.nat;
        QCheck.Gen.map2 (fun a r -> Affinity.Agg_range (a mod 2, r mod 3)) QCheck.Gen.nat QCheck.Gen.nat;
        QCheck.Gen.map2 (fun a v -> Affinity.Volume (a mod 2, v mod 2)) QCheck.Gen.nat QCheck.Gen.nat;
        QCheck.Gen.map2 (fun a v -> Affinity.Volume_logical (a mod 2, v mod 2)) QCheck.Gen.nat QCheck.Gen.nat;
        QCheck.Gen.map2 (fun a v -> Affinity.Stripe (a mod 2, v mod 2, a mod 4)) QCheck.Gen.nat QCheck.Gen.nat;
        QCheck.Gen.map2 (fun a v -> Affinity.Volume_vbn (a mod 2, v mod 2)) QCheck.Gen.nat QCheck.Gen.nat;
        QCheck.Gen.map2 (fun a v -> Affinity.Vol_range (a mod 2, v mod 2, a mod 4)) QCheck.Gen.nat QCheck.Gen.nat;
      ]
  in
  QCheck.Test.make ~name:"conflicting affinities never co-scheduled" ~count:100
    QCheck.(pair (int_bound 10_000) (list_of_size Gen.(5 -- 40) (QCheck.make gen_aff)))
    (fun (seed, affs) ->
      let r = Wafl_util.Rng.create ~seed in
      let eng = Engine.create ~cores:(2 + Wafl_util.Rng.int r 6) () in
      let sched = Scheduler.create eng ~cost:Cost.default () in
      let intervals = ref [] in
      List.iter
        (fun aff ->
          let work = 1.0 +. Wafl_util.Rng.float r 25.0 in
          Scheduler.post sched ~affinity:aff ~label:"m" (fun () ->
              let t0 = Engine.now eng in
              Engine.consume work;
              intervals := (aff, t0, Engine.now eng) :: !intervals))
        affs;
      Engine.run eng;
      let overlap (_, s1, e1) (_, s2, e2) = s1 < e2 && s2 < e1 in
      let pairs_ok = ref true in
      let rec check = function
        | [] -> ()
        | x :: rest ->
            List.iter
              (fun y ->
                let (a1, _, _) = x and (a2, _, _) = y in
                if overlap x y && Affinity.conflicts a1 a2 then pairs_ok := false)
              rest;
            check rest
      in
      check !intervals;
      !pairs_ok && List.length !intervals = List.length affs)

(* --- Allocation guard: a tracer that records nothing costs nothing --- *)

(* Minor words per [Scheduler.post_wait] message, over [n] messages
   posted from one fiber after a warm-up round of the same size. *)
let words_per_post_wait obs_of =
  let eng = Engine.create ~cores:2 () in
  let sched = Scheduler.create ~obs:(obs_of eng) eng ~cost:Cost.default () in
  let n = 10_000 and words = ref Float.nan in
  let round () =
    for i = 0 to n - 1 do
      Scheduler.post_wait sched ~affinity:(Affinity.Stripe (0, 1, i land 7)) ~label:"client" ignore
    done
  in
  ignore
    (Engine.spawn eng (fun () ->
         round ();
         let w0 = Gc.minor_words () in
         round ();
         words := (Gc.minor_words () -. w0) /. float_of_int n));
  Engine.run eng;
  !words

(* Span arguments are built only under [Trace.enabled], which means
   "records": a metrics-only tracer must skip them exactly as the
   disabled one does, while both update the same engine metrics. *)
let test_alloc_metrics_only () =
  let disabled = words_per_post_wait (fun _ -> Wafl_obs.Trace.disabled) in
  let metrics_only = words_per_post_wait Wafl_obs.Trace.metrics_only in
  Alcotest.(check (float 0.0)) "minor words per message" disabled metrics_only

(* --- Promotion guard: a granted message does not outlive its grant --- *)

(* Eight clients each [post_wait] in a loop, alternating between two
   stripes, so each stripe's queue stays non-empty, every grant wakes a
   pooled worker and every message body wakes its poster.  After a
   [Gc.minor] that promotes the scheduler and its fibers, a message
   granted before the next minor collection must stay young.  A queue
   that links its cells promotes every message pushed after its first
   promoted cell while it stays non-empty, with the message's closure:
   about 21 words per round trip. *)
let test_post_wait_promotes_nothing () =
  let eng = Engine.create ~cores:2 () in
  let sched = Scheduler.create eng ~cost:Cost.default () in
  let clients = 8 and n = 100_000 in
  let running = ref clients and p_end = ref Float.nan in
  for c = 1 to clients do
    ignore
      (Engine.spawn eng (fun () ->
           for i = 1 to n / clients do
             Scheduler.post_wait sched ~affinity:(Affinity.Stripe (0, 1, (c + i) land 1))
               ~label:"client" ignore
           done;
           decr running;
           if !running = 0 then p_end := (Gc.quick_stat ()).Gc.promoted_words))
  done;
  Gc.minor ();
  let p0 = (Gc.quick_stat ()).Gc.promoted_words in
  Engine.run eng;
  let per_trip = (!p_end -. p0) /. float_of_int n in
  if not (per_trip < 1.0) then
    Alcotest.failf "%.2f words promoted per post/grant/wake round trip" per_trip

let () =
  Alcotest.run "wafl_waffinity"
    [
      ( "affinity",
        [
          Alcotest.test_case "parent chains" `Quick test_parent_chain;
          Alcotest.test_case "conflict matrix" `Quick test_conflicts;
          QCheck_alcotest.to_alcotest ~verbose:false prop_conflicts_symmetric;
        ] );
      ( "classical",
        [
          Alcotest.test_case "operation mapping" `Quick test_classical_mapping;
          Alcotest.test_case "stripe rotation" `Quick test_classical_stripe_rotation;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "messages execute" `Quick test_messages_execute;
          Alcotest.test_case "same affinity serializes" `Quick test_same_affinity_serializes;
          Alcotest.test_case "disjoint affinities parallel" `Quick
            test_disjoint_affinities_parallel;
          Alcotest.test_case "ancestor excludes descendants" `Quick
            test_ancestor_excludes_descendants;
          Alcotest.test_case "running child blocks parent" `Quick
            test_running_child_blocks_parent;
          Alcotest.test_case "serial blocks everything" `Quick test_serial_blocks_everything;
          Alcotest.test_case "worker cap" `Quick test_worker_cap;
          Alcotest.test_case "post_wait returns value" `Quick test_post_wait_returns_value;
          Alcotest.test_case "FIFO across nodes (1 worker)" `Quick test_fifo_across_nodes;
          Alcotest.test_case "no starvation under repost stream" `Quick
            test_no_starvation_under_repost_stream;
          QCheck_alcotest.to_alcotest ~verbose:false prop_scheduler_replay_identical;
          Alcotest.test_case "FIFO among equal affinities" `Quick
            test_fifo_among_equal_affinities;
          Alcotest.test_case "no head-of-line blocking" `Quick
            test_blocked_message_does_not_block_younger_compatible;
          Alcotest.test_case "executed by kind" `Quick test_executed_by_kind;
          Alcotest.test_case "drain" `Quick test_drain;
          QCheck_alcotest.to_alcotest ~verbose:false prop_no_conflicting_coschedule;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "post_wait: metrics-only = disabled" `Quick test_alloc_metrics_only;
          Alcotest.test_case "post_wait promotes nothing" `Quick test_post_wait_promotes_nothing;
        ] );
    ]
