(* Regression tests for failure modes found while building this system.
   Each test names the bug it guards against; these are the scenarios
   that once deadlocked, lost data, or diverged. *)

open Wafl_sim
open Wafl_fs
open Wafl_workload

(* Bug 1: idle cleaner threads retained partially-used buckets, starving
   the per-RAID-group refill cycle: with more cleaners than concurrently
   dirty inodes, the bucket cache drained and every cleaner parked in GET
   forever.  The trigger was many clients funnelling into few work
   messages on a machine with few drives. *)
let test_idle_cleaner_does_not_starve_refill_cycle () =
  let spec =
    {
      Driver.default_spec with
      Driver.cores = 20;
      clients = 24;
      volumes = 1;
      workload = Driver.Seq_write { file_blocks = 4096 };
      geometry =
        Wafl_storage.Geometry.create ~drive_blocks:65536 ~aa_stripes:1024
          ~raid_groups:[ (4, 1) ] ();
      nvlog_half = 4096;
      warmup = 100_000.0;
      measure = 300_000.0;
      cfg =
        {
          (Wafl_harness.Exp.wa_config ~cleaners:8 ~max_cleaners:8 ()) with
          Wafl_core.Walloc.cp_timer = Some 100_000.0;
        };
    }
  in
  let r = Driver.run spec in
  Alcotest.(check bool)
    (Printf.sprintf "progress under cleaner surplus (%d ops)" r.Driver.ops)
    true (r.Driver.ops > 1000)

(* Bug 2: the CP metafile pass held every bucket it drew from until the
   end of the pass; a random-write CP dirties thousands of container
   chunks, needing more buckets than exist, which deadlocked GET.  The
   pass must return exhausted buckets immediately. *)
let test_metafile_heavy_cp_completes () =
  let eng = Engine.create ~cores:8 () in
  let geometry =
    Wafl_storage.Geometry.create ~drive_blocks:16384 ~aa_stripes:512 ~raid_groups:[ (3, 1) ] ()
  in
  let agg = Aggregate.create eng ~cost:Cost.default ~geometry ~nvlog_half:16384 () in
  let walloc = Wafl_core.Walloc.create agg Wafl_core.Walloc.default_config in
  ignore
    (Engine.spawn eng ~label:"test" (fun () ->
         let vol = Aggregate.create_volume agg ~vvbn_space:32768 in
         Wafl_core.Walloc.register_volume walloc vol;
         let f = Aggregate.create_file agg ~vol:(Volume.id vol) in
         (* Scatter writes across the whole file so nearly every
            container chunk is dirty in one CP. *)
         let r = Wafl_util.Rng.create ~seed:99 in
         for _ = 1 to 8000 do
           ignore
             (Aggregate.write agg ~vol:(Volume.id vol) ~file:(File.id f)
                ~fbn:(Wafl_util.Rng.int r 16000)
                ~content:7L)
         done;
         Wafl_core.Cp.run_now (Wafl_core.Walloc.cp walloc);
         (* A second scattered round reuses freed blocks. *)
         for _ = 1 to 8000 do
           ignore
             (Aggregate.write agg ~vol:(Volume.id vol) ~file:(File.id f)
                ~fbn:(Wafl_util.Rng.int r 16000)
                ~content:8L)
         done;
         Wafl_core.Cp.run_now (Wafl_core.Walloc.cp walloc)));
  Engine.run eng;
  Alcotest.(check int) "two CPs completed" 2
    (Wafl_core.Cp.cps_completed (Wafl_core.Walloc.cp walloc));
  Aggregate.fsck agg

(* Bug 3: with a CP timer (or dynamic tuner) fiber alive, Engine.run
   without ~until never returns; drivers and tests must run in bounded
   slices.  Guard the engine-side contract: run ~until always returns
   even when periodic fibers exist. *)
let test_run_until_returns_with_periodic_fibers () =
  let eng = Engine.create ~cores:2 () in
  ignore
    (Engine.spawn eng ~label:"timer" (fun () ->
         while true do
           Engine.sleep 1_000.0
         done));
  Engine.run ~until:50_000.0 eng;
  Alcotest.(check (float 1e-6)) "clock at limit" 50_000.0 (Engine.now eng)

(* Bug 4: the serialized-infrastructure mode originally posted volume-side
   commits to per-volume affinities, leaking parallelism; everything must
   share the single Aggregate_vbn lane. *)
let test_serialized_infra_is_truly_serial () =
  let eng = Engine.create ~cores:8 () in
  let geometry =
    Wafl_storage.Geometry.create ~drive_blocks:16384 ~aa_stripes:512 ~raid_groups:[ (3, 1) ] ()
  in
  let agg = Aggregate.create eng ~cost:Cost.default ~geometry () in
  let cfg = { Wafl_core.Walloc.serialized_config with cleaner_threads = 4; max_cleaner_threads = 4 } in
  let walloc = Wafl_core.Walloc.create agg cfg in
  ignore
    (Engine.spawn eng ~label:"test" (fun () ->
         let v1 = Aggregate.create_volume agg ~vvbn_space:16384 in
         let v2 = Aggregate.create_volume agg ~vvbn_space:16384 in
         Wafl_core.Walloc.register_volume walloc v1;
         Wafl_core.Walloc.register_volume walloc v2;
         List.iter
           (fun v ->
             let f = Aggregate.create_file agg ~vol:(Volume.id v) in
             for fbn = 0 to 999 do
               ignore
                 (Aggregate.write agg ~vol:(Volume.id v) ~file:(File.id f) ~fbn
                    ~content:(Int64.of_int fbn))
             done)
           [ v1; v2 ];
         Wafl_core.Cp.run_now (Wafl_core.Walloc.cp walloc)));
  Engine.run eng;
  (* In serialized mode no Range-affinity messages may execute. *)
  let kinds = Reg.histo_counts eng ~prefix:"sched.service_us." in
  List.iter
    (fun (kind, n) ->
      if kind = "agg_range" || kind = "vol_range" || kind = "volume_vbn" then
        Alcotest.failf "serialized infra executed %d %s messages" n kind)
    kinds;
  Alcotest.(check bool) "aggregate_vbn lane used" true
    (List.mem_assoc "aggregate_vbn" kinds)

(* Bug 5: NVRAM overflow — clients that only reacted to the Half_full
   return value could overrun the log while a CP was in flight; the
   throttle must park them before the hard limit. *)
let test_clients_throttle_against_cp () =
  let spec =
    {
      Driver.default_spec with
      Driver.cores = 4;
      (* Few cores: CPs are slow relative to the offered load. *)
      clients = 8;
      volumes = 1;
      workload = Driver.Seq_write { file_blocks = 2048 };
      geometry = Driver.small_geometry ();
      nvlog_half = 512;
      warmup = 50_000.0;
      measure = 200_000.0;
      cfg = Wafl_harness.Exp.wa_config ~cleaners:2 ~max_cleaners:2 ();
    }
  in
  (* Must not raise "NVRAM exhausted". *)
  let r = Driver.run spec in
  Alcotest.(check bool) "survived with a tiny log" true (r.Driver.ops > 0)

(* Bug 6: blocks enqueued into a tetris after its refcount reached zero
   (metafile write-out racing bucket retirement) were silently dropped,
   corrupting recovery.  End-to-end guard: heavy metafile CPs followed by
   crash + recovery must read back exactly. *)
let test_no_lost_metafile_blocks_across_crash () =
  let eng = Engine.create ~cores:8 () in
  let geometry =
    Wafl_storage.Geometry.create ~drive_blocks:16384 ~aa_stripes:512 ~raid_groups:[ (3, 1) ] ()
  in
  let agg = Aggregate.create eng ~cost:Cost.default ~geometry () in
  let walloc = Wafl_core.Walloc.create agg Wafl_core.Walloc.default_config in
  ignore
    (Engine.spawn eng ~label:"test" (fun () ->
         let vol = Aggregate.create_volume agg ~vvbn_space:32768 in
         Wafl_core.Walloc.register_volume walloc vol;
         let f = Aggregate.create_file agg ~vol:(Volume.id vol) in
         let r = Wafl_util.Rng.create ~seed:5 in
         for round = 1 to 3 do
           for _ = 1 to 4000 do
             let fbn = Wafl_util.Rng.int r 12000 in
             ignore
               (Aggregate.write agg ~vol:(Volume.id vol) ~file:(File.id f) ~fbn
                  ~content:(Int64.of_int ((round * 100_000) + fbn)))
           done;
           Wafl_core.Cp.run_now (Wafl_core.Walloc.cp walloc)
         done));
  Engine.run eng;
  let pers = Aggregate.crash agg in
  let eng2 = Engine.create ~cores:4 () in
  let agg2 = Aggregate.recover eng2 ~cost:Cost.default pers in
  (* Every mapped block must be readable — a lost metafile block would
     surface as Corruption here. *)
  let f2 = Volume.file_exn (Aggregate.volume_exn agg2 0) 0 in
  let checked = ref 0 in
  for fbn = 0 to File.nfbns f2 - 1 do
    if File.vvbn_of_fbn f2 fbn >= 0 then begin
      (match Aggregate.read agg2 ~vol:0 ~file:0 ~fbn with
      | Some _ -> ()
      | None -> Alcotest.failf "fbn %d mapped but unreadable" fbn);
      incr checked
    end
  done;
  Alcotest.(check bool) "thousands of blocks verified" true (!checked > 5000);
  Aggregate.fsck agg2

let () =
  Alcotest.run "regressions"
    [
      ( "deadlocks and data loss",
        [
          Alcotest.test_case "idle cleaners don't starve refills" `Quick
            test_idle_cleaner_does_not_starve_refill_cycle;
          Alcotest.test_case "metafile-heavy CP completes" `Quick
            test_metafile_heavy_cp_completes;
          Alcotest.test_case "run ~until with periodic fibers" `Quick
            test_run_until_returns_with_periodic_fibers;
          Alcotest.test_case "serialized infra truly serial" `Quick
            test_serialized_infra_is_truly_serial;
          Alcotest.test_case "clients throttle against CP" `Quick
            test_clients_throttle_against_cp;
          Alcotest.test_case "no lost metafile blocks across crash" `Quick
            test_no_lost_metafile_blocks_across_crash;
        ] );
    ]
