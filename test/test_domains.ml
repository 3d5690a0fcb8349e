(* Multicore host execution: the domain pool, the partitioned engine,
   and the end-to-end byte-identity guarantee.

   The tentpole claim of the multicore work is that parallelism is pure
   mechanism — a run fanned over N worker domains returns exactly what
   the serial run returns, bit for bit.  These tests pin that claim at
   every layer: Pool.run/map/team (input-order merge, exception
   propagation, barrier reuse), Partition (conservative-lookahead
   bounds, deterministic cross-partition delivery order, QCheck replay
   identity on random message topologies), and the full harnesses
   (figs 4-9, overload, flash, crash seeds, fleet shard) fanned over 4
   domains (the shard also over 2) against the golden digests of their
   serial runs (golden.ml), as test_sanitize.ml does for the sanitizer. *)

module H = Wafl_harness
module Pool = Wafl_util.Pool
module Rng = Wafl_util.Rng
open Wafl_sim

(* --- Pool ---------------------------------------------------------------- *)

let test_pool_input_order () =
  let tasks = List.init 23 (fun i () -> i * i) in
  Alcotest.(check (list int))
    "results in input order regardless of completion order"
    (List.init 23 (fun i -> i * i))
    (Pool.run ~domains:4 tasks);
  Alcotest.(check (list int))
    "map matches List.map"
    (List.map (fun x -> x + 1) [ 5; 3; 8 ])
    (Pool.map ~domains:3 (fun x -> x + 1) [ 5; 3; 8 ])

let test_pool_more_domains_than_tasks () =
  Alcotest.(check (list int)) "domains > tasks" [ 7 ] (Pool.run ~domains:8 [ (fun () -> 7) ]);
  Alcotest.(check (list int)) "empty task list" [] (Pool.run ~domains:4 [])

exception Boom of int

let test_pool_exception_first_in_input_order () =
  let tasks =
    [
      (fun () -> 1);
      (fun () -> raise (Boom 2));
      (fun () -> 3);
      (fun () -> raise (Boom 4));
    ]
  in
  List.iter
    (fun domains ->
      match Pool.run ~domains tasks with
      | _ -> Alcotest.failf "expected Boom at %d domains" domains
      | exception Boom n ->
          Alcotest.(check int)
            (Printf.sprintf "first input-order exception at %d domains" domains)
            2 n)
    [ 1; 4 ]

let test_pool_team_batches () =
  let team = Pool.team ~domains:3 in
  Fun.protect ~finally:(fun () -> Pool.team_stop team) @@ fun () ->
  (* several barriers through the same persistent workers *)
  for batch = 1 to 5 do
    let n = 4 + batch in
    let out = Array.make n 0 in
    Pool.team_run team (List.init n (fun i () -> out.(i) <- (batch * 100) + i));
    Alcotest.(check (array int))
      (Printf.sprintf "batch %d: every task ran exactly once" batch)
      (Array.init n (fun i -> (batch * 100) + i))
      out
  done;
  (match Pool.team_run team [ (fun () -> raise (Boom 9)) ] with
  | () -> Alcotest.fail "expected Boom from team_run"
  | exception Boom 9 -> ()
  | exception e -> raise e);
  (* the team survives a failed batch *)
  let ok = ref false in
  Pool.team_run team [ (fun () -> ok := true) ];
  Alcotest.(check bool) "team usable after an exception batch" true !ok

let test_pool_default_domains () =
  Alcotest.(check bool) "default_domains >= 1" true (Pool.default_domains () >= 1)

(* --- Partition: conservative bounds and delivery order ------------------- *)

let test_partition_bounds () =
  let part = Partition.create ~parts:2 ~cores_per_part:1 ~lookahead:100.0 () in
  Alcotest.check_raises "delay below lookahead rejected"
    (Invalid_argument "Partition.post: delay below the conservative lookahead") (fun () ->
      Partition.post part ~src:0 ~dst:1 ~delay:50.0 (fun () -> ()));
  Alcotest.check_raises "dst out of range rejected"
    (Invalid_argument "Partition.post: dst out of range") (fun () ->
      Partition.post part ~src:0 ~dst:2 ~delay:100.0 (fun () -> ()));
  Partition.run ~until:500.0 part;
  Alcotest.(check (float 0.0)) "drained run jumps to until" 500.0 (Partition.now part);
  Alcotest.check_raises "until behind horizon rejected"
    (Invalid_argument "Partition.run: until is behind the horizon") (fun () ->
      Partition.run ~until:100.0 part)

let test_partition_delivery_order () =
  let part = Partition.create ~parts:2 ~cores_per_part:1 ~lookahead:10.0 () in
  let log = ref [] in
  let mark tag () = log := tag :: !log in
  (* Same-time ties break by (src, per-source seq): s0 before s1, and
     within a source in send order. *)
  Partition.post part ~src:0 ~dst:1 ~delay:25.0 (mark "d25.s0q0");
  Partition.post part ~src:0 ~dst:1 ~delay:15.0 (mark "d15.s0q1");
  Partition.post part ~src:0 ~dst:1 ~delay:20.0 (mark "d20.s0q2");
  Partition.post part ~src:0 ~dst:1 ~delay:20.0 (mark "d20.s0q3");
  Partition.post part ~src:1 ~dst:1 ~delay:20.0 (mark "d20.s1q0");
  Partition.run ~until:100.0 part;
  Alcotest.(check (list string))
    "delivery sorted by (deliver, src, seq)"
    [ "d15.s0q1"; "d20.s0q2"; "d20.s0q3"; "d20.s1q0"; "d25.s0q0" ]
    (List.rev !log)

(* --- Partition: QCheck replay identity ----------------------------------- *)

(* A random cross-partition message topology: every partition runs a
   generator fiber that burns random virtual time, logs its progress,
   and posts closures (which log at the destination) to random
   partitions with random conservative delays.  The per-partition logs
   — values and virtual timestamps — must be byte-identical however
   many worker domains execute the windows. *)
let topology ~seed ~parts ~domains =
  let part = Partition.create ~parts ~cores_per_part:2 ~lookahead:50.0 () in
  let logs = Array.make parts [] in
  for pid = 0 to parts - 1 do
    let eng = Partition.engine part pid in
    ignore
      (Engine.spawn eng ~label:"gen" (fun () ->
           let rng = Rng.create ~seed:(seed + (pid * 7919)) in
           for i = 1 to 40 do
             Engine.consume (1.0 +. Rng.float rng 30.0);
             logs.(pid) <- (i, Engine.now eng) :: logs.(pid);
             if Rng.bool rng then begin
               let dst = Rng.int rng parts in
               let delay = 50.0 +. Rng.float rng 100.0 in
               Partition.post part ~src:pid ~dst ~delay (fun () ->
                   logs.(dst) <- (-i, Engine.now (Partition.engine part dst)) :: logs.(dst))
             end
           done))
  done;
  Partition.run ~domains ~until:2_500.0 part;
  Array.map List.rev logs

let prop_partition_replay_identical =
  QCheck.Test.make ~name:"partitioned runs replay identically across domain counts" ~count:30
    QCheck.(pair (int_bound 100_000) (int_range 2 4))
    (fun (seed, parts) ->
      topology ~seed ~parts ~domains:1 = topology ~seed ~parts ~domains:4)

(* --- harness byte-identity: 4 domains against the golden ----------------- *)

(* The subject fanned over 4 worker domains matches the golden digest of
   its serial run (golden.ml): every counter, float and latency histogram
   of the full row structure. *)
let check_d4 s () = ignore (Golden.check s (Golden.Domains 4))

let test_crash_seeds () =
  let par = Golden.check Golden.crash (Golden.Domains 4) in
  Alcotest.(check bool) "crash: all seeds pass" true (List.for_all H.Crash.passed par)

let test_shard_digest () =
  ignore (Golden.check Golden.shard (Golden.Domains 2));
  let o = Golden.check Golden.shard (Golden.Domains 4) in
  List.iter
    (fun (name, ok) -> Alcotest.(check bool) name true ok)
    (H.Shard.shapes o)

let () =
  Alcotest.run "domains"
    [
      ( "pool",
        [
          Alcotest.test_case "input-order merge" `Quick test_pool_input_order;
          Alcotest.test_case "more domains than tasks" `Quick test_pool_more_domains_than_tasks;
          Alcotest.test_case "first exception wins" `Quick test_pool_exception_first_in_input_order;
          Alcotest.test_case "persistent team batches" `Quick test_pool_team_batches;
          Alcotest.test_case "default domain count" `Quick test_pool_default_domains;
        ] );
      ( "partition",
        [
          Alcotest.test_case "conservative bounds" `Quick test_partition_bounds;
          Alcotest.test_case "delivery order" `Quick test_partition_delivery_order;
          QCheck_alcotest.to_alcotest ~verbose:false prop_partition_replay_identical;
        ] );
      ( "byte-identity",
        [
          Alcotest.test_case "fig4" `Slow (check_d4 Golden.fig4);
          Alcotest.test_case "fig5" `Slow (check_d4 Golden.fig5);
          Alcotest.test_case "fig6" `Slow (check_d4 Golden.fig6);
          Alcotest.test_case "fig7" `Slow (check_d4 Golden.fig7);
          Alcotest.test_case "fig8" `Slow (check_d4 Golden.fig8);
          Alcotest.test_case "fig9" `Slow (check_d4 Golden.fig9);
          Alcotest.test_case "overload" `Slow (check_d4 Golden.overload);
          Alcotest.test_case "flash" `Slow (check_d4 Golden.flash);
          Alcotest.test_case "crash five seeds" `Slow test_crash_seeds;
          Alcotest.test_case "fleet shard digest" `Slow test_shard_digest;
        ] );
    ]
