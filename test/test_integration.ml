(* End-to-end tests: client writes -> CP (cleaning, metafile relocation,
   tetris I/O, superblock) -> read-back -> fsck -> crash -> recovery.
   These exercise every layer of the reproduction together. *)

open Wafl_sim
open Wafl_fs
module Geometry = Wafl_storage.Geometry

let small_geometry () =
  (* 2 RAID groups x 3 data drives, small drives so tests are fast. *)
  Geometry.create ~drive_blocks:8192 ~aa_stripes:512 ~raid_groups:[ (3, 1); (3, 1) ] ()

type env = {
  eng : Engine.t;
  agg : Aggregate.t;
  walloc : Wafl_core.Walloc.t;
  vol : Volume.t;
}

let make_env ?(cfg = Wafl_core.Walloc.default_config) ?(cores = 8) () =
  let eng = Engine.create ~cores () in
  let agg =
    Aggregate.create eng ~cost:Cost.default ~geometry:(small_geometry ()) ~nvlog_half:4096 ()
  in
  let walloc = Wafl_core.Walloc.create agg cfg in
  let env = ref None in
  ignore
    (Engine.spawn eng ~label:"setup" (fun () ->
         let vol = Aggregate.create_volume agg ~vvbn_space:65536 in
         Wafl_core.Walloc.register_volume walloc vol;
         env := Some vol));
  (* Bounded slices: a CP-timer or tuner fiber keeps the engine from ever
     going idle. *)
  while !env = None do
    Engine.run ~until:(Engine.now eng +. 10_000.0) eng
  done;
  match !env with
  | Some vol -> { eng; agg; walloc; vol }
  | None -> failwith "setup failed"

(* Run [body] inside the simulation and drive it to completion. *)
let in_sim env body =
  ignore (Engine.spawn env.eng ~label:"test" (fun () -> body ()));
  Engine.run env.eng

let content_token ~file ~fbn ~gen =
  Int64.of_int ((file * 1_000_003) + (fbn * 997) + (gen * 31))

let write_file env ~file ~blocks ~gen =
  for fbn = 0 to blocks - 1 do
    match
      Aggregate.write env.agg ~vol:(Volume.id env.vol) ~file ~fbn
        ~content:(content_token ~file ~fbn ~gen)
    with
    | `Ok | `Log_half_full -> ()
    | `Log_exhausted -> failwith "unexpected NVRAM exhaustion"
  done

let check_file env ~file ~blocks ~gen =
  for fbn = 0 to blocks - 1 do
    match Aggregate.read env.agg ~vol:(Volume.id env.vol) ~file ~fbn with
    | Some c ->
        if c <> content_token ~file ~fbn ~gen then
          Alcotest.failf "file %d fbn %d: wrong content (gen %d)" file fbn gen
    | None -> Alcotest.failf "file %d fbn %d: unexpected hole" file fbn
  done

let run_cp env = Wafl_core.Cp.run_now (Wafl_core.Walloc.cp env.walloc)

(* --- tests --------------------------------------------------------------- *)

let test_write_read_before_cp () =
  let env = make_env () in
  in_sim env (fun () ->
      let f = Aggregate.create_file env.agg ~vol:(Volume.id env.vol) in
      write_file env ~file:(File.id f) ~blocks:100 ~gen:0;
      check_file env ~file:(File.id f) ~blocks:100 ~gen:0)

let test_cp_persists_and_reads_back () =
  let env = make_env () in
  in_sim env (fun () ->
      let f = Aggregate.create_file env.agg ~vol:(Volume.id env.vol) in
      write_file env ~file:(File.id f) ~blocks:500 ~gen:0;
      run_cp env;
      (* After the CP the buffers are gone from memory; reads must hit the
         on-disk tree through bmap -> container -> disk. *)
      check_file env ~file:(File.id f) ~blocks:500 ~gen:0);
  Alcotest.(check int) "one CP completed" 1
    (Wafl_core.Cp.cps_completed (Wafl_core.Walloc.cp env.walloc));
  Aggregate.fsck env.agg

let test_overwrite_frees_old_blocks () =
  let env = make_env () in
  let free_before = ref 0 in
  in_sim env (fun () ->
      let f = Aggregate.create_file env.agg ~vol:(Volume.id env.vol) in
      write_file env ~file:(File.id f) ~blocks:300 ~gen:0;
      run_cp env;
      free_before := Bitmap_file.free_count (Aggregate.agg_map env.agg);
      (* Overwrite everything; the old pvbns must be freed by the next CP. *)
      write_file env ~file:(File.id f) ~blocks:300 ~gen:1;
      run_cp env;
      check_file env ~file:(File.id f) ~blocks:300 ~gen:1);
  Aggregate.fsck env.agg;
  let free_after = Bitmap_file.free_count (Aggregate.agg_map env.agg) in
  (* Steady state: data blocks reused (new alloc = old free); only
     metafile growth can consume a handful of extra blocks. *)
  Alcotest.(check bool)
    (Printf.sprintf "free space steady under overwrite (%d -> %d)" !free_before free_after)
    true
    (free_after >= !free_before - 64)

let test_multiple_files_and_cps () =
  let env = make_env () in
  in_sim env (fun () ->
      let files = Array.init 20 (fun _ -> Aggregate.create_file env.agg ~vol:(Volume.id env.vol)) in
      for round = 0 to 3 do
        Array.iter (fun f -> write_file env ~file:(File.id f) ~blocks:50 ~gen:round) files;
        run_cp env
      done;
      Array.iter (fun f -> check_file env ~file:(File.id f) ~blocks:50 ~gen:3) files);
  Aggregate.fsck env.agg

let test_crash_before_any_cp () =
  let env = make_env () in
  in_sim env (fun () ->
      let f = Aggregate.create_file env.agg ~vol:(Volume.id env.vol) in
      write_file env ~file:(File.id f) ~blocks:100 ~gen:0);
  (* Crash: all volatile state dropped; NVRAM log replays everything. *)
  let pers = Aggregate.crash env.agg in
  let eng2 = Engine.create ~cores:8 () in
  let agg2 = Aggregate.recover eng2 ~cost:Cost.default pers in
  ignore
    (Engine.spawn eng2 ~label:"check" (fun () ->
         for fbn = 0 to 99 do
           match Aggregate.read agg2 ~vol:0 ~file:0 ~fbn with
           | Some c ->
               if c <> content_token ~file:0 ~fbn ~gen:0 then
                 Alcotest.failf "fbn %d: wrong content after replay" fbn
           | None -> Alcotest.failf "fbn %d: lost after replay" fbn
         done));
  Engine.run eng2

let test_crash_after_cp_with_tail () =
  let env = make_env () in
  in_sim env (fun () ->
      let f = Aggregate.create_file env.agg ~vol:(Volume.id env.vol) in
      write_file env ~file:(File.id f) ~blocks:200 ~gen:0;
      run_cp env;
      (* Tail of operations after the CP, lost from memory but in NVRAM. *)
      write_file env ~file:(File.id f) ~blocks:80 ~gen:1);
  let pers = Aggregate.crash env.agg in
  let eng2 = Engine.create ~cores:8 () in
  let agg2 = Aggregate.recover eng2 ~cost:Cost.default pers in
  ignore
    (Engine.spawn eng2 ~label:"check" (fun () ->
         for fbn = 0 to 199 do
           let expected_gen = if fbn < 80 then 1 else 0 in
           match Aggregate.read agg2 ~vol:0 ~file:0 ~fbn with
           | Some c ->
               if c <> content_token ~file:0 ~fbn ~gen:expected_gen then
                 Alcotest.failf "fbn %d: wrong content after recovery" fbn
           | None -> Alcotest.failf "fbn %d: lost after recovery" fbn
         done));
  Engine.run eng2

let test_recovery_then_new_cp_and_fsck () =
  let env = make_env () in
  in_sim env (fun () ->
      let f = Aggregate.create_file env.agg ~vol:(Volume.id env.vol) in
      write_file env ~file:(File.id f) ~blocks:150 ~gen:0;
      run_cp env;
      write_file env ~file:(File.id f) ~blocks:150 ~gen:1);
  let pers = Aggregate.crash env.agg in
  let eng2 = Engine.create ~cores:8 () in
  let agg2 = Aggregate.recover eng2 ~cost:Cost.default pers in
  let walloc2 = Wafl_core.Walloc.create agg2 Wafl_core.Walloc.default_config in
  ignore
    (Engine.spawn eng2 ~label:"drive" (fun () ->
         Wafl_core.Cp.run_now (Wafl_core.Walloc.cp walloc2);
         for fbn = 0 to 149 do
           match Aggregate.read agg2 ~vol:0 ~file:0 ~fbn with
           | Some c ->
               if c <> content_token ~file:0 ~fbn ~gen:1 then
                 Alcotest.failf "fbn %d: wrong content after recovery + CP" fbn
           | None -> Alcotest.failf "fbn %d: lost after recovery + CP" fbn
         done));
  Engine.run eng2;
  Aggregate.fsck agg2

let permutation_configs =
  [
    ("serialized", Wafl_core.Walloc.serialized_config);
    ( "parallel infra only",
      { Wafl_core.Walloc.serialized_config with parallel_infra = true } );
    ( "parallel cleaners only",
      {
        Wafl_core.Walloc.serialized_config with
        cleaner_threads = 4;
        max_cleaner_threads = 4;
      } );
    ("white alligator", Wafl_core.Walloc.default_config);
  ]

let test_all_permutations_correct () =
  List.iter
    (fun (name, cfg) ->
      let env = make_env ~cfg () in
      in_sim env (fun () ->
          let f = Aggregate.create_file env.agg ~vol:(Volume.id env.vol) in
          write_file env ~file:(File.id f) ~blocks:400 ~gen:0;
          run_cp env;
          write_file env ~file:(File.id f) ~blocks:400 ~gen:1;
          run_cp env;
          check_file env ~file:(File.id f) ~blocks:400 ~gen:1);
      (try Aggregate.fsck env.agg with Failure m -> Alcotest.failf "%s: %s" name m);
      ignore name)
    permutation_configs

let test_random_overwrites_with_cps () =
  let env = make_env () in
  let r = Wafl_util.Rng.create ~seed:2024 in
  let blocks = 600 in
  let latest = Array.make blocks (-1) in
  in_sim env (fun () ->
      let f = Aggregate.create_file env.agg ~vol:(Volume.id env.vol) in
      (* Initial layout. *)
      write_file env ~file:(File.id f) ~blocks ~gen:0;
      Array.fill latest 0 blocks 0;
      for round = 1 to 6 do
        for _ = 1 to 400 do
          let fbn = Wafl_util.Rng.int r blocks in
          ignore
            (Aggregate.write env.agg ~vol:(Volume.id env.vol) ~file:(File.id f) ~fbn
               ~content:(content_token ~file:(File.id f) ~fbn ~gen:round));
          latest.(fbn) <- round
        done;
        run_cp env
      done;
      for fbn = 0 to blocks - 1 do
        match Aggregate.read env.agg ~vol:(Volume.id env.vol) ~file:(File.id f) ~fbn with
        | Some c ->
            if c <> content_token ~file:(File.id f) ~fbn ~gen:latest.(fbn) then
              Alcotest.failf "fbn %d: stale content after random overwrites" fbn
        | None -> Alcotest.failf "fbn %d: hole after random overwrites" fbn
      done);
  Aggregate.fsck env.agg

let test_two_volumes_isolated () =
  let env = make_env () in
  in_sim env (fun () ->
      let vol2 = Aggregate.create_volume env.agg ~vvbn_space:65536 in
      Wafl_core.Walloc.register_volume env.walloc vol2;
      let f1 = Aggregate.create_file env.agg ~vol:(Volume.id env.vol) in
      let f2 = Aggregate.create_file env.agg ~vol:(Volume.id vol2) in
      write_file env ~file:(File.id f1) ~blocks:200 ~gen:0;
      for fbn = 0 to 199 do
        ignore
          (Aggregate.write env.agg ~vol:(Volume.id vol2) ~file:(File.id f2) ~fbn
             ~content:(content_token ~file:77 ~fbn ~gen:5))
      done;
      run_cp env;
      check_file env ~file:(File.id f1) ~blocks:200 ~gen:0;
      for fbn = 0 to 199 do
        match Aggregate.read env.agg ~vol:(Volume.id vol2) ~file:(File.id f2) ~fbn with
        | Some c ->
            if c <> content_token ~file:77 ~fbn ~gen:5 then
              Alcotest.failf "vol2 fbn %d: wrong content" fbn
        | None -> Alcotest.failf "vol2 fbn %d: hole" fbn
      done);
  Aggregate.fsck env.agg

let test_counters_audited () =
  let env = make_env () in
  in_sim env (fun () ->
      let f = Aggregate.create_file env.agg ~vol:(Volume.id env.vol) in
      write_file env ~file:(File.id f) ~blocks:256 ~gen:0;
      run_cp env;
      write_file env ~file:(File.id f) ~blocks:256 ~gen:1;
      run_cp env);
  (* Loose-accounting tokens are flushed at each CP end, so the global
     cleaner counters must now be exact. *)
  let counters = Aggregate.counters env.agg in
  Alcotest.(check int) "buffers cleaned counter" 512
    (Counters.read counters "cleaner_buffers_cleaned");
  Alcotest.(check int) "blocks freed counter" 256
    (Counters.read counters "cleaner_blocks_freed")

let test_no_stalled_fibers_after_quiesce () =
  let env = make_env () in
  in_sim env (fun () ->
      let f = Aggregate.create_file env.agg ~vol:(Volume.id env.vol) in
      write_file env ~file:(File.id f) ~blocks:100 ~gen:0;
      run_cp env);
  (* Service fibers (io, cleaners, CP manager, infra caches) legitimately
     park between CPs; anything labelled "test" or "client" must not. *)
  let stuck =
    List.filter
      (fun (_, label) -> label = "test" || label = "client" || label = "setup")
      (Engine.stalled_fibers env.eng)
  in
  Alcotest.(check int) "no stuck test fibers" 0 (List.length stuck)

let test_full_stripe_writes_dominate_sequential () =
  let env = make_env () in
  in_sim env (fun () ->
      let f = Aggregate.create_file env.agg ~vol:(Volume.id env.vol) in
      write_file env ~file:(File.id f) ~blocks:3000 ~gen:0;
      run_cp env);
  let full = ref 0 and partial = ref 0 in
  Array.iter
    (fun raid ->
      full := !full + Wafl_storage.Raid.full_stripes raid;
      partial := !partial + Wafl_storage.Raid.partial_stripes raid)
    (Aggregate.raid_groups env.agg);
  Alcotest.(check bool)
    (Printf.sprintf "full stripes dominate (%d full vs %d partial)" !full !partial)
    true
    (!full > !partial)

let test_delete_file_reclaims_space () =
  let env = make_env () in
  let free_before = ref 0 in
  in_sim env (fun () ->
      free_before := Bitmap_file.free_count (Aggregate.agg_map env.agg);
      let f = Aggregate.create_file env.agg ~vol:(Volume.id env.vol) in
      write_file env ~file:(File.id f) ~blocks:400 ~gen:0;
      run_cp env;
      Aggregate.delete_file env.agg ~vol:(Volume.id env.vol) ~file:(File.id f);
      run_cp env;
      (* A second CP so the thawed frees are fully visible. *)
      run_cp env;
      Alcotest.(check (option Alcotest.unit)) "file gone" None
        (Option.map ignore (Volume.file env.vol (File.id f))));
  Aggregate.fsck env.agg;
  let free_after = Bitmap_file.free_count (Aggregate.agg_map env.agg) in
  (* Everything except a handful of metafile blocks comes back. *)
  Alcotest.(check bool)
    (Printf.sprintf "space reclaimed (%d -> %d)" !free_before free_after)
    true
    (free_after >= !free_before - 64)

let test_delete_survives_crash_replay () =
  let env = make_env () in
  in_sim env (fun () ->
      let f = Aggregate.create_file env.agg ~vol:(Volume.id env.vol) in
      write_file env ~file:(File.id f) ~blocks:100 ~gen:0;
      run_cp env;
      Aggregate.delete_file env.agg ~vol:(Volume.id env.vol) ~file:(File.id f));
  (* Crash before the deleting CP: the logged deletion must replay. *)
  let pers = Aggregate.crash env.agg in
  let eng2 = Engine.create ~cores:8 () in
  let agg2 = Aggregate.recover eng2 ~cost:Cost.default pers in
  let walloc2 = Wafl_core.Walloc.create agg2 Wafl_core.Walloc.default_config in
  ignore
    (Engine.spawn eng2 ~label:"drive" (fun () ->
         Wafl_core.Cp.run_now (Wafl_core.Walloc.cp walloc2);
         Alcotest.(check bool) "file gone after replayed deletion" true
           (Volume.file (Aggregate.volume_exn agg2 0) 0 = None)));
  Engine.run eng2;
  Aggregate.fsck agg2

let test_delete_dirty_file_drops_buffers () =
  let env = make_env () in
  in_sim env (fun () ->
      let f = Aggregate.create_file env.agg ~vol:(Volume.id env.vol) in
      write_file env ~file:(File.id f) ~blocks:50 ~gen:0;
      (* Never flushed: delete while dirty. *)
      Aggregate.delete_file env.agg ~vol:(Volume.id env.vol) ~file:(File.id f);
      run_cp env);
  Aggregate.fsck env.agg;
  Alcotest.(check int) "nothing allocated for the deleted file" 0
    (Bitmap_file.used_count (Volume.vol_map env.vol))

let test_history_serial_mode_correct () =
  (* The pre-2008 serial-affinity allocator must produce the same
     on-disk correctness guarantees as White Alligator. *)
  let cfg = { Wafl_core.Walloc.serialized_config with serial_cleaning = true } in
  let env = make_env ~cfg () in
  in_sim env (fun () ->
      let f = Aggregate.create_file env.agg ~vol:(Volume.id env.vol) in
      write_file env ~file:(File.id f) ~blocks:400 ~gen:0;
      run_cp env;
      write_file env ~file:(File.id f) ~blocks:400 ~gen:1;
      run_cp env;
      check_file env ~file:(File.id f) ~blocks:400 ~gen:1);
  Aggregate.fsck env.agg

let test_serial_mode_crash_recovery () =
  let cfg = { Wafl_core.Walloc.serialized_config with serial_cleaning = true } in
  let env = make_env ~cfg () in
  in_sim env (fun () ->
      let f = Aggregate.create_file env.agg ~vol:(Volume.id env.vol) in
      write_file env ~file:(File.id f) ~blocks:120 ~gen:0;
      run_cp env;
      write_file env ~file:(File.id f) ~blocks:60 ~gen:1);
  let pers = Aggregate.crash env.agg in
  let eng2 = Engine.create ~cores:8 () in
  let agg2 = Aggregate.recover eng2 ~cost:Cost.default pers in
  ignore
    (Engine.spawn eng2 ~label:"check" (fun () ->
         for fbn = 0 to 119 do
           let expected_gen = if fbn < 60 then 1 else 0 in
           match Aggregate.read agg2 ~vol:0 ~file:0 ~fbn with
           | Some c when c = content_token ~file:0 ~fbn ~gen:expected_gen -> ()
           | _ -> Alcotest.failf "fbn %d: wrong content after serial-mode recovery" fbn
         done));
  Engine.run eng2

(* Crash at an arbitrary moment — including mid-CP — must lose nothing
   that was acknowledged.  Copy-on-write guarantees the previous CP's
   tree is intact on disk; NVRAM replay covers the rest. *)
let prop_crash_anywhere_loses_nothing =
  QCheck.Test.make ~name:"crash at a random instant loses no acknowledged write" ~count:8
    QCheck.(pair (int_bound 10_000) (int_range 5_000 60_000))
    (fun (seed, crash_at) ->
      let cfg = { Wafl_core.Walloc.default_config with cp_timer = Some 8_000.0 } in
      let env = make_env ~cfg () in
      let journal = Hashtbl.create 1024 in
      let r = Wafl_util.Rng.create ~seed in
      ignore
        (Engine.spawn env.eng ~label:"writer" (fun () ->
             let f = Aggregate.create_file env.agg ~vol:(Volume.id env.vol) in
             for i = 0 to 2999 do
               let fbn = Wafl_util.Rng.int r 700 in
               let content = Int64.of_int ((i * 131) + fbn) in
               (match
                  Aggregate.write env.agg ~vol:(Volume.id env.vol) ~file:(File.id f) ~fbn
                    ~content
                with
               | `Ok -> ()
               | `Log_half_full -> Wafl_core.Cp.request (Wafl_core.Walloc.cp env.walloc)
               | `Log_exhausted -> failwith "unexpected NVRAM exhaustion");
               (* The reply leaves the box here; the write is acknowledged. *)
               Hashtbl.replace journal fbn content;
               Engine.consume 3.0
             done));
      Engine.run ~until:(float_of_int crash_at) env.eng;
      let pers = Aggregate.crash env.agg in
      let eng2 = Engine.create ~cores:8 () in
      let agg2 = Aggregate.recover eng2 ~cost:Cost.default pers in
      let ok = ref true in
      (match Aggregate.volume agg2 0 with
      | None -> ok := Hashtbl.length journal = 0
      | Some _ ->
          Hashtbl.iter
            (fun fbn content ->
              match Aggregate.read agg2 ~vol:0 ~file:0 ~fbn with
              | Some c when c = content -> ()
              | _ -> ok := false)
            journal);
      !ok)

(* --- randomized crash-point harness --- *)

module Crash = Wafl_harness.Crash

(* 50 seeds of the full fault-injection harness: seeded fault plan
   (media errors, transient failures, disk loss, torn NVRAM tail),
   crash at a plan-chosen virtual instant, recover, fsck, and verify
   every acknowledged write.  Also asserts the seed range exercises the
   interesting regimes: some crashes land mid-CP and some with a disk
   failure active. *)
let test_crash_harness_50_seeds () =
  let outcomes = Crash.run_seeds ~first_seed:1 ~count:50 () in
  List.iter
    (fun (o : Crash.outcome) ->
      if not (Crash.passed o) then
        Alcotest.failf "seed %d: lost %d acked blocks%s (crash %.0fus, phase %s)" o.Crash.seed
          o.Crash.lost
          (match o.Crash.fsck_failure with Some m -> ", fsck: " ^ m | None -> "")
          o.Crash.crash_time o.Crash.cp_phase)
    outcomes;
  Alcotest.(check bool) "some seeds crash mid-CP" true
    (List.exists (fun o -> o.Crash.mid_cp) outcomes);
  Alcotest.(check bool) "some seeds crash with a disk failure active" true
    (List.exists (fun o -> o.Crash.disk_failure_active) outcomes)

(* Negative control: deliberately publish the superblock before the
   tetris flush has quiesced (a broken commit ordering, switched on by
   the run's chaos plan).  The harness must catch it — otherwise its
   oracle proves nothing.  The seeds fan out over two worker domains and
   must still match their golden outcomes.  A seed whose recovery fails must name the
   block reference it could not load, with its index and pvbn.  The
   seeds that do recover lose acked writes while fsck passes: fsck
   checks the in-memory tables, not that the blocks they reference
   landed (DESIGN.md §4.6). *)
let names_index_and_pvbn m =
  let is_num s = s <> "" && String.for_all (fun c -> '0' <= c && c <= '9') s in
  let rec scan = function
    | index :: "at" :: "pvbn" :: pvbn :: _ when is_num index ->
        String.ends_with ~suffix:":" pvbn && is_num (String.sub pvbn 0 (String.length pvbn - 1))
    | _ :: rest -> scan rest
    | [] -> false
  in
  scan (String.split_on_char ' ' m)

let test_chaos_broken_commit_ordering_caught () =
  let outcomes = Golden.check Golden.crash_chaos (Golden.Domains 2) in
  Alcotest.(check bool) "harness catches publish-before-quiesce" true
    (List.exists (fun o -> not (Crash.passed o)) outcomes);
  let recovery_failures =
    List.filter_map
      (fun o ->
        match o.Crash.fsck_failure with
        | Some m when String.starts_with ~prefix:"recovery: " m -> Some m
        | _ -> None)
      outcomes
  in
  Alcotest.(check bool) "some seed fails in recovery" true (recovery_failures <> []);
  List.iter
    (fun m ->
      if not (names_index_and_pvbn m) then
        Alcotest.failf "recovery failure names no reference index and pvbn: %s" m)
    recovery_failures

let () =
  Alcotest.run "integration"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "write/read before CP" `Quick test_write_read_before_cp;
          Alcotest.test_case "CP persists and reads back" `Quick test_cp_persists_and_reads_back;
          Alcotest.test_case "overwrite frees old blocks" `Quick test_overwrite_frees_old_blocks;
          Alcotest.test_case "multiple files and CPs" `Quick test_multiple_files_and_cps;
          Alcotest.test_case "crash before any CP" `Quick test_crash_before_any_cp;
          Alcotest.test_case "crash after CP with tail" `Quick test_crash_after_cp_with_tail;
          Alcotest.test_case "recovery then new CP + fsck" `Quick
            test_recovery_then_new_cp_and_fsck;
          Alcotest.test_case "all four permutations correct" `Slow
            test_all_permutations_correct;
          Alcotest.test_case "random overwrites with CPs" `Slow test_random_overwrites_with_cps;
          Alcotest.test_case "two volumes isolated" `Quick test_two_volumes_isolated;
          Alcotest.test_case "loose accounting audited" `Quick test_counters_audited;
          Alcotest.test_case "no stalled fibers" `Quick test_no_stalled_fibers_after_quiesce;
          Alcotest.test_case "sequential writes are full-stripe" `Quick
            test_full_stripe_writes_dominate_sequential;
          Alcotest.test_case "delete reclaims space" `Quick test_delete_file_reclaims_space;
          Alcotest.test_case "delete survives crash replay" `Quick
            test_delete_survives_crash_replay;
          Alcotest.test_case "delete dirty file drops buffers" `Quick
            test_delete_dirty_file_drops_buffers;
          Alcotest.test_case "serial mode correct" `Quick test_history_serial_mode_correct;
          Alcotest.test_case "serial mode crash recovery" `Quick
            test_serial_mode_crash_recovery;
          QCheck_alcotest.to_alcotest ~verbose:false prop_crash_anywhere_loses_nothing;
        ] );
      ( "crash-harness",
        [
          Alcotest.test_case "50 random fault plans lose nothing" `Slow
            test_crash_harness_50_seeds;
          Alcotest.test_case "broken commit ordering caught" `Slow
            test_chaos_broken_commit_ordering_caught;
        ] );
    ]
