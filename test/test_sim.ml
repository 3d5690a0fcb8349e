(* Tests for the discrete-event engine: virtual time, core limits, CPU
   accounting, preemption, synchronization primitives, determinism. *)

open Wafl_sim

let check_float = Alcotest.(check (float 1e-6))

let test_single_fiber_time () =
  let eng = Engine.create ~cores:1 () in
  let done_at = ref 0.0 in
  ignore
    (Engine.spawn eng (fun () ->
         Engine.consume 10.0;
         Engine.consume 5.0;
         done_at := Engine.now eng));
  Engine.run eng;
  check_float "consumes add up" 15.0 !done_at;
  check_float "clock at end" 15.0 (Engine.now eng)

let test_parallel_on_two_cores () =
  let eng = Engine.create ~cores:2 () in
  for _ = 1 to 2 do
    ignore (Engine.spawn eng (fun () -> Engine.consume 100.0))
  done;
  Engine.run eng;
  check_float "two fibers overlap fully" 100.0 (Engine.now eng)

let test_serialization_on_one_core () =
  let eng = Engine.create ~cores:1 () in
  for _ = 1 to 2 do
    ignore (Engine.spawn eng (fun () -> Engine.consume 100.0))
  done;
  Engine.run eng;
  check_float "two fibers serialize" 200.0 (Engine.now eng)

let test_three_fibers_two_cores () =
  let eng = Engine.create ~quantum:0.0 ~cores:2 () in
  for _ = 1 to 3 do
    ignore (Engine.spawn eng (fun () -> Engine.consume 100.0))
  done;
  Engine.run eng;
  check_float "third fiber waits for a core" 200.0 (Engine.now eng)

let test_sleep () =
  let eng = Engine.create ~cores:1 () in
  let woke = ref 0.0 in
  ignore
    (Engine.spawn eng (fun () ->
         Engine.sleep 50.0;
         woke := Engine.now eng));
  Engine.run eng;
  check_float "sleep wakes at the right time" 50.0 !woke

let test_sleep_releases_core () =
  let eng = Engine.create ~cores:1 () in
  let order = ref [] in
  ignore
    (Engine.spawn eng (fun () ->
         Engine.sleep 100.0;
         order := "sleeper" :: !order));
  ignore
    (Engine.spawn eng (fun () ->
         Engine.consume 10.0;
         order := "worker" :: !order));
  Engine.run eng;
  Alcotest.(check (list string)) "worker ran during the sleep" [ "sleeper"; "worker" ] !order

let test_spawn_at () =
  let eng = Engine.create ~cores:1 () in
  let started = ref 0.0 in
  ignore (Engine.spawn eng ~at:42.0 (fun () -> started := Engine.now eng));
  Engine.run eng;
  check_float "delayed spawn" 42.0 !started

let test_accounting_by_label () =
  let eng = Engine.create ~cores:4 () in
  ignore (Engine.spawn eng ~label:"cleaner" (fun () -> Engine.consume 30.0));
  ignore (Engine.spawn eng ~label:"cleaner" (fun () -> Engine.consume 20.0));
  ignore (Engine.spawn eng ~label:"infra" (fun () -> Engine.consume 100.0));
  Engine.run eng;
  check_float "cleaner busy" 50.0 (Engine.busy eng "cleaner");
  check_float "infra busy" 100.0 (Engine.busy eng "infra");
  check_float "cleaner cores-used" 0.5 (Engine.cores_used eng "cleaner");
  check_float "utilization" (150.0 /. 400.0) (Engine.utilization eng)

let test_accounting_reset () =
  let eng = Engine.create ~cores:1 () in
  ignore
    (Engine.spawn eng ~label:"w" (fun () ->
         Engine.consume 10.0;
         Engine.sleep 10.0;
         Engine.consume 7.0));
  Engine.run ~until:15.0 eng;
  Engine.reset_accounting eng;
  Engine.run eng;
  check_float "only post-reset work counted" 7.0 (Engine.busy eng "w")

let test_set_label () =
  let eng = Engine.create ~cores:1 () in
  ignore
    (Engine.spawn eng ~label:"a" (fun () ->
         Engine.consume 10.0;
         Engine.set_label eng "b";
         Engine.consume 5.0));
  Engine.run eng;
  check_float "label a" 10.0 (Engine.busy eng "a");
  check_float "label b" 5.0 (Engine.busy eng "b")

let test_run_until_resumable () =
  let eng = Engine.create ~cores:1 () in
  let finished = ref false in
  ignore
    (Engine.spawn eng (fun () ->
         Engine.consume 100.0;
         finished := true));
  Engine.run ~until:40.0 eng;
  check_float "clock stopped at limit" 40.0 (Engine.now eng);
  Alcotest.(check bool) "not finished yet" false !finished;
  Engine.run eng;
  Alcotest.(check bool) "finished after continuing" true !finished;
  check_float "full time elapsed" 100.0 (Engine.now eng)

let test_quantum_preemption () =
  (* With a quantum, two long CPU hogs on one core interleave rather than
     running to completion in spawn order. *)
  let eng = Engine.create ~quantum:10.0 ~cores:1 () in
  let first_done = ref 0.0 and second_done = ref 0.0 in
  ignore
    (Engine.spawn eng (fun () ->
         for _ = 1 to 10 do
           Engine.consume 10.0
         done;
         first_done := Engine.now eng));
  ignore
    (Engine.spawn eng (fun () ->
         for _ = 1 to 10 do
           Engine.consume 10.0
         done;
         second_done := Engine.now eng));
  Engine.run eng;
  (* Round-robin slicing means neither hog finishes early: without a
     quantum the first would finish at t=100. *)
  Alcotest.(check bool)
    (Printf.sprintf "interleaved (first at %.0f, second at %.0f)" !first_done !second_done)
    true
    (!first_done >= 190.0 && !second_done >= 190.0)

let test_no_quantum_runs_to_completion () =
  let eng = Engine.create ~quantum:0.0 ~cores:1 () in
  let first_done = ref 0.0 in
  ignore
    (Engine.spawn eng (fun () ->
         for _ = 1 to 10 do
           Engine.consume 10.0
         done;
         first_done := Engine.now eng));
  ignore (Engine.spawn eng (fun () -> Engine.consume 100.0));
  Engine.run eng;
  check_float "first fiber unpreempted" 100.0 !first_done

let test_yield_round_robin () =
  let eng = Engine.create ~cores:1 () in
  let order = Buffer.create 16 in
  let worker c =
    Engine.spawn eng (fun () ->
        for _ = 1 to 3 do
          Buffer.add_char order c;
          Engine.yield ()
        done)
  in
  ignore (worker 'a');
  ignore (worker 'b');
  Engine.run eng;
  Alcotest.(check string) "strict alternation" "ababab" (Buffer.contents order)

let test_join () =
  let eng = Engine.create ~cores:2 () in
  let seen = ref 0.0 in
  let producer = Engine.spawn eng (fun () -> Engine.consume 80.0) in
  ignore
    (Engine.spawn eng (fun () ->
         Engine.join eng producer;
         seen := Engine.now eng));
  Engine.run eng;
  check_float "join waits for completion" 80.0 !seen

let test_join_finished_fiber () =
  let eng = Engine.create ~cores:1 () in
  let ok = ref false in
  let quick = Engine.spawn eng (fun () -> ()) in
  ignore
    (Engine.spawn eng (fun () ->
         Engine.consume 5.0;
         Engine.join eng quick;
         ok := true));
  Engine.run eng;
  Alcotest.(check bool) "join on finished fiber returns" true !ok

let test_stalled_fiber_detection () =
  let eng = Engine.create ~cores:1 () in
  ignore (Engine.spawn eng ~label:"stuck" (fun () -> Engine.park eng));
  Engine.run eng;
  match Engine.stalled_fibers eng with
  | [ (_, label) ] -> Alcotest.(check string) "stalled label" "stuck" label
  | other -> Alcotest.failf "expected one stalled fiber, got %d" (List.length other)

(* The engine keeps only unfinished fibers: 100 K fibers that finish
   leave nothing behind, while the three that park (first, middle and
   last spawned, around a parked daemon) stay diagnosable, newest first. *)
let test_fiber_registry_bounded () =
  let eng = Engine.create ~cores:4 () in
  let parked = ref [] in
  let spawn_parked label =
    let f = Engine.spawn eng ~label (fun () -> Engine.park eng) in
    parked := (Engine.fiber_id f, label) :: !parked
  in
  let n = 100_000 in
  spawn_parked "first";
  for i = 1 to n do
    ignore (Engine.spawn eng ~label:"done" (fun () -> Engine.consume 1.0));
    if i = n / 2 then begin
      spawn_parked "middle";
      ignore (Engine.spawn eng ~label:"daemon" ~daemon:true (fun () -> Engine.park eng))
    end
  done;
  spawn_parked "last";
  Engine.run eng;
  Alcotest.(check int) "only the parked fibers are live" 3 (Engine.live_fibers eng);
  Alcotest.(check (list (pair int string))) "parked fibers, newest first" !parked
    (Engine.stalled_fibers eng);
  let words = Obj.reachable_words (Obj.repr eng) in
  if words > 2_000 then
    Alcotest.failf "engine reaches %d words after %d finished fibers" words n

(* Slots of finished fibers are reused: a fiber spawned after a burst of
   100 K others has finished still sleeps, wakes, runs and is joined. *)
let test_spawn_after_burst () =
  let eng = Engine.create ~cores:4 () in
  for _ = 1 to 100_000 do
    ignore (Engine.spawn eng (fun () -> Engine.consume 1.0))
  done;
  Engine.run eng;
  let t0 = Engine.now eng and woke = ref 0.0 and joined = ref 0.0 in
  let late =
    Engine.spawn eng ~label:"late" (fun () ->
        Engine.sleep 5.0;
        woke := Engine.now eng;
        Engine.consume 2.0)
  in
  ignore
    (Engine.spawn eng ~label:"joiner" (fun () ->
         Engine.join eng late;
         joined := Engine.now eng));
  Engine.run eng;
  check_float "the late fiber woke on time" (t0 +. 5.0) !woke;
  check_float "its joiner resumed when it finished" (t0 +. 7.0) !joined;
  Alcotest.(check int) "nothing left live" 0 (Engine.live_fibers eng);
  check_float "late fiber's work charged" 2.0 (Engine.busy eng "late")

(* The engine alone, against its golden (test/golden.ml), plain and
   sanitized. *)
let test_schedule_trace () =
  ignore (Golden.check Golden.engine_schedule Golden.Plain);
  ignore (Golden.check Golden.engine_schedule Golden.Sanitize)

(* Allocation guard: after warm-up, a suspend/resume round trip
   allocates only the continuation the runtime makes per perform (2
   words): the operand, the stored continuation, the event and the
   dispatch allocate nothing.  Two fibers consuming in lock step on two
   cores tie on every resume event, so every consume takes the slow
   path. *)
let minor_words_per_trip ~cores ~trips step =
  let eng = Engine.create ~quantum:0.0 ~cores () in
  let warm = 1_000 in
  for _ = 1 to cores do
    ignore
      (Engine.spawn eng (fun () ->
           for _ = 1 to warm + trips do
             step ()
           done))
  done;
  Engine.run ~until:(float_of_int warm) eng;
  let w0 = Gc.minor_words () in
  Engine.run eng;
  let w = Gc.minor_words () -. w0 in
  w /. float_of_int (cores * trips)

let test_suspend_allocation () =
  let trips = 50_000 in
  (* Read from a flat float record, as call sites read costs: a computed
     duration, not a preallocated constant. *)
  let d = { Cost.default with Cost.msg_dispatch = 1.0 } in
  let consume =
    minor_words_per_trip ~cores:2 ~trips (fun () -> Engine.consume d.Cost.msg_dispatch)
  in
  let sleep = minor_words_per_trip ~cores:1 ~trips (fun () -> Engine.sleep d.Cost.msg_dispatch) in
  if consume > 2.05 || sleep > 2.05 then
    Alcotest.failf "minor words per round trip: consume %.2f, sleep %.2f (at most 2 each)"
      consume sleep

let test_determinism () =
  let trace () =
    let eng = Engine.create ~cores:3 () in
    let buf = Buffer.create 64 in
    let r = Wafl_util.Rng.create ~seed:99 in
    for i = 0 to 9 do
      let work = 1.0 +. Wafl_util.Rng.float r 10.0 in
      ignore
        (Engine.spawn eng (fun () ->
             Engine.consume work;
             Buffer.add_string buf (Printf.sprintf "%d@%.3f;" i (Engine.now eng))))
    done;
    Engine.run eng;
    Buffer.contents buf
  in
  Alcotest.(check string) "identical traces" (trace ()) (trace ())

(* --- Sync primitives --- *)

(* A one-token channel is a lock: [recv] takes the token, parking while
   another fiber holds it, and [send] gives it back. *)
let token_channel eng =
  let ch = Sync.Channel.create eng in
  Sync.Channel.send ch ();
  ch

let with_token ch f =
  Sync.Channel.recv ch;
  let v = f () in
  Sync.Channel.send ch ();
  v

let test_token_exclusion () =
  let eng = Engine.create ~cores:4 () in
  let token = token_channel eng in
  let in_section = ref 0 and max_in_section = ref 0 in
  for _ = 1 to 4 do
    ignore
      (Engine.spawn eng (fun () ->
           with_token token (fun () ->
               incr in_section;
               if !in_section > !max_in_section then max_in_section := !in_section;
               Engine.consume 10.0;
               decr in_section)))
  done;
  Engine.run eng;
  Alcotest.(check int) "mutual exclusion" 1 !max_in_section;
  check_float "critical sections serialized" 40.0 (Engine.now eng)

let test_channel_fifo () =
  let eng = Engine.create ~cores:1 () in
  let ch = Sync.Channel.create eng in
  let received = ref [] in
  ignore
    (Engine.spawn eng (fun () ->
         for i = 1 to 5 do
           Sync.Channel.send ch i
         done));
  ignore
    (Engine.spawn eng (fun () ->
         for _ = 1 to 5 do
           received := Sync.Channel.recv ch :: !received
         done));
  Engine.run eng;
  Alcotest.(check (list int)) "FIFO order" [ 1; 2; 3; 4; 5 ] (List.rev !received)

let test_channel_blocking_recv () =
  let eng = Engine.create ~cores:2 () in
  let ch = Sync.Channel.create eng in
  let got_at = ref 0.0 in
  ignore
    (Engine.spawn eng (fun () ->
         ignore (Sync.Channel.recv ch);
         got_at := Engine.now eng));
  ignore
    (Engine.spawn eng (fun () ->
         Engine.consume 25.0;
         Sync.Channel.send ch ()));
  Engine.run eng;
  check_float "receiver blocked until send" 25.0 !got_at

let test_waitq () =
  let eng = Engine.create ~cores:2 () in
  let wq = Sync.Waitq.create eng in
  let woke = ref [] in
  for i = 1 to 2 do
    ignore
      (Engine.spawn eng (fun () ->
           Sync.Waitq.wait wq;
           woke := i :: !woke))
  done;
  ignore
    (Engine.spawn eng (fun () ->
         Engine.consume 10.0;
         Alcotest.(check bool) "oldest woken" true (Sync.Waitq.wake_one wq);
         Engine.consume 10.0;
         Alcotest.(check int) "remaining woken" 1 (Sync.Waitq.wake_all wq)));
  Engine.run eng;
  Alcotest.(check int) "both woke" 2 (List.length !woke)

let test_channel_receivers_fifo () =
  let eng = Engine.create ~quantum:0.0 ~cores:3 () in
  let token = token_channel eng in
  let order = ref [] in
  (* The holder takes the token first; two receivers park in a known
     order. *)
  ignore (Engine.spawn eng (fun () -> with_token token (fun () -> Engine.consume 50.0)));
  for i = 1 to 2 do
    ignore
      (Engine.spawn eng (fun () ->
           Engine.consume (float_of_int i);
           with_token token (fun () -> order := i :: !order)))
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "FIFO handoff" [ 1; 2 ] (List.rev !order)

(* --- property: the engine is a pure function of its program --- *)

(* A random "program" of fibers doing consumes, sleeps, yields, channel
   sends/receives and critical sections under a one-token channel must
   produce a bit-identical event trace on every execution. *)
let run_random_program seed =
  let r = Wafl_util.Rng.create ~seed in
  let eng = Engine.create ~cores:(1 + Wafl_util.Rng.int r 4) () in
  let trace = Buffer.create 256 in
  let ch = Sync.Channel.create eng in
  let token = token_channel eng in
  let nfibers = 2 + Wafl_util.Rng.int r 6 in
  let nsenders = ref 0 in
  for i = 0 to nfibers - 1 do
    let my_rng = Wafl_util.Rng.split r in
    let sender = Wafl_util.Rng.bool my_rng in
    if sender then incr nsenders;
    ignore
      (Engine.spawn eng ~label:(Printf.sprintf "f%d" i) (fun () ->
           for step = 0 to 4 + Wafl_util.Rng.int my_rng 8 do
             match Wafl_util.Rng.int my_rng 4 with
             | 0 -> Engine.consume (1.0 +. Wafl_util.Rng.float my_rng 20.0)
             | 1 -> Engine.sleep (Wafl_util.Rng.float my_rng 30.0)
             | 2 -> Engine.yield ()
             | _ ->
                 with_token token (fun () ->
                     Engine.consume 2.0;
                     Buffer.add_string trace (Printf.sprintf "%d.%d@%.2f;" i step (Engine.now eng)))
           done;
           if sender then Sync.Channel.send ch i))
  done;
  (* A consumer that drains exactly the values the senders produce. *)
  ignore
    (Engine.spawn eng ~label:"consumer" (fun () ->
         for _ = 1 to !nsenders do
           let v = Sync.Channel.recv ch in
           Buffer.add_string trace (Printf.sprintf "recv%d@%.2f;" v (Engine.now eng))
         done));
  Engine.run eng;
  Buffer.add_string trace (Printf.sprintf "end@%.2f" (Engine.now eng));
  Buffer.contents trace

let prop_engine_deterministic =
  QCheck.Test.make ~name:"random fiber programs replay identically" ~count:60
    QCheck.(int_bound 100_000)
    (fun seed -> String.equal (run_random_program seed) (run_random_program seed))

let prop_no_fiber_starves =
  QCheck.Test.make ~name:"every fiber of a terminating program finishes" ~count:60
    QCheck.(int_bound 100_000)
    (fun seed ->
      let r = Wafl_util.Rng.create ~seed in
      let eng = Engine.create ~cores:(1 + Wafl_util.Rng.int r 3) () in
      let n = 3 + Wafl_util.Rng.int r 8 in
      let finished = ref 0 in
      for _ = 1 to n do
        let my = Wafl_util.Rng.split r in
        ignore
          (Engine.spawn eng (fun () ->
               for _ = 0 to Wafl_util.Rng.int my 6 do
                 if Wafl_util.Rng.bool my then Engine.consume (Wafl_util.Rng.float my 5.0)
                 else Engine.yield ()
               done;
               incr finished))
      done;
      Engine.run eng;
      !finished = n && Engine.live_fibers eng = 0)

(* --- Promotion guard: the engine's queues keep no popped element --- *)

(* Eight producers each send a fresh item and park on a wait queue; one
   consumer receives an item and wakes the oldest producer.  The
   channel's items and the wait queue never drain, and each round trip
   also passes through the runnable queue twice.  After a [Gc.minor]
   that promotes the engine and its fibers, an item consumed before the
   next minor collection must stay young.  A queue that links its cells
   promotes every cell pushed after its first promoted one while it stays
   non-empty, with what the cell holds: about 7 words per round trip. *)
let test_queues_promote_nothing () =
  let eng = Engine.create ~cores:2 () in
  let items = Sync.Channel.create eng and parked = Sync.Waitq.create eng in
  let producers = 8 and n = 100_000 in
  ignore
    (Engine.spawn eng ~label:"consumer" (fun () ->
         for _ = 1 to n do
           ignore (Sys.opaque_identity !(Sync.Channel.recv items));
           Engine.consume 1.0;
           ignore (Sync.Waitq.wake_one parked)
         done));
  for p = 1 to producers do
    ignore
      (Engine.spawn eng ~label:"producer" (fun () ->
           for i = 1 to n / producers do
             Sync.Channel.send items (ref (p + i));
             Sync.Waitq.wait parked
           done))
  done;
  Gc.minor ();
  let p0 = (Gc.quick_stat ()).Gc.promoted_words in
  Engine.run eng;
  let per_trip = ((Gc.quick_stat ()).Gc.promoted_words -. p0) /. float_of_int n in
  Alcotest.(check int) "every round trip ran" 0 (Engine.live_fibers eng);
  if not (per_trip < 1.0) then
    Alcotest.failf "%.2f words promoted per send/recv/wake round trip" per_trip

let () =
  Alcotest.run "wafl_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "single fiber time" `Quick test_single_fiber_time;
          Alcotest.test_case "two cores run in parallel" `Quick test_parallel_on_two_cores;
          Alcotest.test_case "one core serializes" `Quick test_serialization_on_one_core;
          Alcotest.test_case "three fibers two cores" `Quick test_three_fibers_two_cores;
          Alcotest.test_case "sleep" `Quick test_sleep;
          Alcotest.test_case "sleep releases core" `Quick test_sleep_releases_core;
          Alcotest.test_case "spawn at" `Quick test_spawn_at;
          Alcotest.test_case "fiber registry bounded" `Quick test_fiber_registry_bounded;
          Alcotest.test_case "accounting by label" `Quick test_accounting_by_label;
          Alcotest.test_case "accounting reset" `Quick test_accounting_reset;
          Alcotest.test_case "set_label" `Quick test_set_label;
          Alcotest.test_case "run ~until is resumable" `Quick test_run_until_resumable;
          Alcotest.test_case "quantum preemption" `Quick test_quantum_preemption;
          Alcotest.test_case "no quantum runs to completion" `Quick
            test_no_quantum_runs_to_completion;
          Alcotest.test_case "yield round robin" `Quick test_yield_round_robin;
          Alcotest.test_case "join" `Quick test_join;
          Alcotest.test_case "join finished fiber" `Quick test_join_finished_fiber;
          Alcotest.test_case "stalled fiber detection" `Quick test_stalled_fiber_detection;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "spawn after a burst" `Quick test_spawn_after_burst;
          Alcotest.test_case "schedule trace matches its golden" `Quick test_schedule_trace;
          Alcotest.test_case "suspend round trips allocate little" `Quick test_suspend_allocation;
        ] );
      ( "sync",
        [
          Alcotest.test_case "token channel exclusion" `Quick test_token_exclusion;
          Alcotest.test_case "channel FIFO" `Quick test_channel_fifo;
          Alcotest.test_case "channel blocking recv" `Quick test_channel_blocking_recv;
          Alcotest.test_case "waitq" `Quick test_waitq;
          Alcotest.test_case "channel receivers FIFO" `Quick test_channel_receivers_fifo;
          Alcotest.test_case "queues promote nothing" `Quick test_queues_promote_nothing;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest ~verbose:false prop_engine_deterministic;
          QCheck_alcotest.to_alcotest ~verbose:false prop_no_fiber_starves;
        ] );
    ]
