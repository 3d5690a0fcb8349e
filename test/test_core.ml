(* Unit tests for Wafl_core: buckets, stages, tetris, the GET/USE/PUT API,
   infrastructure refill cycles, the cleaner pool and the dynamic tuner. *)

open Wafl_sim
open Wafl_fs
module Geometry = Wafl_storage.Geometry
open Wafl_core

(* --- Bucket --- *)

let phys_target = Bucket.Phys { rg = 0; drive = 0 }

let dummy_tetris eng cost =
  let geom = Geometry.create ~drive_blocks:1024 ~aa_stripes:128 ~raid_groups:[ (2, 1) ] () in
  let disk = Wafl_storage.Disk.create geom in
  let raid = Wafl_storage.Raid.create eng ~cost ~disk ~rg:0 in
  (Tetris.create eng ~cost ~raid ~expected_buckets:1, disk, raid)

let test_bucket_take_order () =
  let eng = Engine.create ~cores:1 () in
  let tetris, _, _ = dummy_tetris eng Cost.free in
  let b = Bucket.make ~target:phys_target ~tetris ~vbns:[| 10; 11; 13 |] () in
  Alcotest.(check int) "capacity" 3 (Bucket.capacity b);
  Alcotest.(check (option int)) "first" (Some 10) (Bucket.take b);
  Alcotest.(check (option int)) "second" (Some 11) (Bucket.take b);
  Alcotest.(check int) "consumed so far" 2 (Bucket.consumed_count b);
  Alcotest.(check (array int)) "consumed first, unused after" [| 10; 11; 13 |] (Bucket.vbns b);
  Alcotest.(check (option int)) "third" (Some 13) (Bucket.take b);
  Alcotest.(check (option int)) "exhausted" None (Bucket.take b);
  Alcotest.(check bool) "flag" true (Bucket.is_exhausted b)

let test_bucket_kind_constraints () =
  let eng = Engine.create ~cores:1 () in
  let tetris, _, _ = dummy_tetris eng Cost.free in
  Alcotest.check_raises "phys needs tetris"
    (Invalid_argument "Bucket.make: physical bucket needs a tetris") (fun () ->
      ignore (Bucket.make ~target:phys_target ~vbns:[||] ()));
  Alcotest.check_raises "virt refuses tetris"
    (Invalid_argument "Bucket.make: virtual bucket cannot have a tetris") (fun () ->
      ignore (Bucket.make ~target:(Bucket.Virt { vol = 0 }) ~tetris ~vbns:[||] ()))

let test_api_use_virt_on_phys_rejected () =
  let eng = Engine.create ~cores:1 () in
  let tetris, _, _ = dummy_tetris eng Cost.free in
  let b = Bucket.make ~target:phys_target ~tetris ~vbns:[| 1 |] () in
  Alcotest.check_raises "use_virt on phys"
    (Invalid_argument "Api.use_virt: physical bucket") (fun () -> ignore (Api.use_virt b))

(* --- Stage --- *)

let test_stage_fill_drain () =
  let s = Stage.create ~target:Stage.Phys ~capacity:3 in
  Alcotest.(check bool) "not full" true (Stage.add s 5 = `Ok);
  Alcotest.(check bool) "not full" true (Stage.add s 3 = `Ok);
  Alcotest.(check bool) "full on capacity" true (Stage.add s 9 = `Full);
  Alcotest.check_raises "no room past capacity" (Invalid_argument "Stage.add: stage is full")
    (fun () -> ignore (Stage.add s 1));
  Alcotest.(check (array int)) "drain sorted" [| 3; 5; 9 |] (Stage.drain s);
  Alcotest.(check bool) "empty after drain" true (Stage.is_empty s)

(* --- Tetris --- *)

let data vbn = Layout.Data { vol = 0; file = 0; fbn = vbn; content = Int64.of_int vbn }

let test_tetris_submits_on_last_bucket () =
  let eng = Engine.create ~cores:2 () in
  let geom = Geometry.create ~drive_blocks:1024 ~aa_stripes:128 ~raid_groups:[ (2, 1) ] () in
  let disk = Wafl_storage.Disk.create geom in
  ignore
    (Engine.spawn eng ~label:"t" (fun () ->
         let raid = Wafl_storage.Raid.create eng ~cost:Cost.default ~disk ~rg:0 in
         let tetris = Tetris.create eng ~cost:Cost.default ~raid ~expected_buckets:2 in
         Tetris.enqueue tetris ~vbn:0 ~payload:(data 0);
         Tetris.enqueue tetris ~vbn:1024 ~payload:(data 1024);
         Tetris.bucket_done tetris;
         (* One fill sample per submitted I/O, its value the I/O's blocks. *)
         Alcotest.(check int) "no IO before last bucket" 0
           (Reg.histo_count eng "tetris.fill_blocks");
         Tetris.bucket_done tetris;
         Alcotest.(check int) "IO on last bucket" 1 (Reg.histo_count eng "tetris.fill_blocks");
         Alcotest.(check int) "both blocks" 2 (Reg.histo_sum eng "tetris.fill_blocks");
         Wafl_storage.Raid.quiesce raid;
         Alcotest.(check bool) "durable" true (Wafl_storage.Disk.read disk 0 <> None)));
  Engine.run eng

let test_tetris_submit_now_then_more () =
  let eng = Engine.create ~cores:2 () in
  let geom = Geometry.create ~drive_blocks:1024 ~aa_stripes:128 ~raid_groups:[ (2, 1) ] () in
  let disk = Wafl_storage.Disk.create geom in
  ignore
    (Engine.spawn eng ~label:"t" (fun () ->
         let raid = Wafl_storage.Raid.create eng ~cost:Cost.default ~disk ~rg:0 in
         let tetris = Tetris.create eng ~cost:Cost.default ~raid ~expected_buckets:1 in
         Tetris.enqueue tetris ~vbn:1 ~payload:(data 1);
         Tetris.submit_now tetris;
         (* Late blocks after an early flush are not lost: the next submit
            picks them up (the CP metafile pass relies on this). *)
         Tetris.enqueue tetris ~vbn:2 ~payload:(data 2);
         Tetris.submit_now tetris;
         Alcotest.(check int) "two IOs" 2 (Reg.histo_count eng "tetris.fill_blocks");
         Wafl_storage.Raid.quiesce raid;
         Alcotest.(check bool) "late block durable" true
           (Wafl_storage.Disk.read disk 2 <> None)));
  Engine.run eng

(* --- Allocation guard: the data-block write path ---

   Once the pools are warm (the group's batch has grown to the I/O's
   size, the disk's pages exist), a data block cleaned through
   [Api.use_data] into a tetris and made durable by the RAID group
   allocates nothing: its key and content travel as words from the call
   to the disk slot.  What an I/O allocates for itself (its request, the
   completion closure, the service fiber's bookkeeping) does not depend
   on its size, so two I/Os of different sizes allocate the same. *)

let test_alloc_clean_to_disk () =
  let eng = Engine.create ~cores:1 () in
  let geom = Geometry.create ~drive_blocks:8192 ~aa_stripes:512 ~raid_groups:[ (3, 1) ] () in
  let disk = Wafl_storage.Disk.create ~codec:Layout.data_codec geom in
  let raid = Wafl_storage.Raid.create eng ~cost:Cost.default ~disk ~rg:0 in
  let clean n =
    let words = ref nan in
    ignore
      (Engine.spawn eng ~label:"cleaner" (fun () ->
           let tetris = Tetris.create eng ~cost:Cost.default ~raid ~expected_buckets:1 in
           let b = Bucket.make ~target:phys_target ~tetris ~vbns:(Array.init n Fun.id) () in
           let w0 = Gc.minor_words () in
           for fbn = 0 to n - 1 do
             ignore (Api.use_data b ~vol:1 ~file:2 ~fbn ~content:(Int64.of_int (fbn * 3)))
           done;
           Tetris.bucket_done tetris;
           Wafl_storage.Raid.quiesce raid;
           words := Gc.minor_words () -. w0));
    Engine.run eng;
    !words
  in
  ignore (clean 4096);
  ignore (clean 1024);
  let small = clean 1024 and large = clean 4096 in
  Alcotest.(check (float 0.0)) "words per block" 0.0 ((large -. small) /. 3072.0);
  Alcotest.(check bool) "durable, compact" true
    (Wafl_storage.Disk.read disk 4095
    = Some (Layout.Data { vol = 1; file = 2; fbn = 4095; content = Int64.of_int (4095 * 3) }))

(* The same path inside a whole CP, cleaner pool included: a CP over
   fresh blocks allocates about 10 words a block, for what the cleaner,
   the infrastructure and the metafile images need per block; the data
   block itself adds nothing.  A [Layout.Data] built per block (a record
   and its boxed content, 8 words) breaks the bound. *)
let test_alloc_cp_per_block () =
  let eng = Engine.create ~cores:8 () in
  let geometry =
    Geometry.create ~drive_blocks:16384 ~aa_stripes:512 ~raid_groups:[ (3, 1) ] ()
  in
  let agg = Aggregate.create eng ~cost:Cost.default ~geometry ~nvlog_half:8192 () in
  let walloc = Walloc.create agg Walloc.default_config in
  let per_block = ref nan in
  ignore
    (Engine.spawn eng ~label:"setup" (fun () ->
         let vol = Aggregate.create_volume agg ~vvbn_space:65536 in
         Walloc.register_volume walloc vol;
         let f = Aggregate.create_file agg ~vol:(Volume.id vol) in
         let next = ref 0 in
         let cp n =
           for fbn = !next to !next + n - 1 do
             ignore
               (Aggregate.write agg ~vol:(Volume.id vol) ~file:(File.id f) ~fbn
                  ~content:(Int64.of_int fbn))
           done;
           next := !next + n;
           let w0 = Gc.minor_words () in
           Cp.run_now (Walloc.cp walloc);
           Gc.minor_words () -. w0
         in
         ignore (cp 2048);
         ignore (cp 2048);
         let extra = ref 0.0 in
         for _ = 1 to 3 do
           let small = cp 1024 in
           extra := !extra +. (cp 2048 -. small)
         done;
         per_block := !extra /. 3072.0));
  Engine.run eng;
  Alcotest.(check bool) (Printf.sprintf "%.2f words a cleaned block" !per_block) true
    (!per_block <= 12.0)

(* --- a full stack for infra / pool tests --- *)

let small_geom () = Geometry.create ~drive_blocks:8192 ~aa_stripes:512 ~raid_groups:[ (3, 1) ] ()

type stack = {
  eng : Engine.t;
  agg : Aggregate.t;
  walloc : Walloc.t;
  vol : Volume.t;
}

let make_stack ?(cfg = Walloc.default_config) () =
  let eng = Engine.create ~cores:8 () in
  let agg = Aggregate.create eng ~cost:Cost.default ~geometry:(small_geom ()) ~nvlog_half:4096 () in
  let walloc = Walloc.create agg cfg in
  let out = ref None in
  ignore
    (Engine.spawn eng ~label:"setup" (fun () ->
         let vol = Aggregate.create_volume agg ~vvbn_space:65536 in
         Walloc.register_volume walloc vol;
         out := Some vol));
  (* A dynamic-tuner (or CP-timer) fiber keeps the engine from ever going
     idle, so drive setup with bounded slices. *)
  while !out = None do
    Engine.run ~until:(Engine.now eng +. 10_000.0) eng
  done;
  { eng; agg; walloc; vol = Option.get !out }

let in_sim st body =
  ignore (Engine.spawn st.eng ~label:"test" (fun () -> body ()));
  Engine.run st.eng

(* Configurations with a dynamic tuner (or CP timer) keep a periodic fiber
   alive forever, so the engine never goes idle; drive those tests with a
   bounded virtual-time window instead. *)
let in_sim_bounded st ~until body =
  let finished = ref false in
  ignore
    (Engine.spawn st.eng ~label:"test" (fun () ->
         body ();
         finished := true));
  let deadline = ref until in
  while (not !finished) && Engine.now st.eng < !deadline do
    Engine.run ~until:(Engine.now st.eng +. 100_000.0) st.eng
  done;
  Alcotest.(check bool) "test body completed in time" true !finished

(* --- Infra --- *)

let test_infra_initial_fill () =
  let st = make_stack () in
  (* After creation + engine run, each data drive contributed one bucket
     and the volume cache was stocked. *)
  let infra = Walloc.infra st.walloc in
  Alcotest.(check int) "phys cache stocked" 3 (Infra.phys_cache_length infra);
  Alcotest.(check bool) "virt cache stocked" true (Infra.virt_cache_length infra st.vol > 0)

let test_infra_get_use_put_commit_cycle () =
  let st = make_stack () in
  let infra = Walloc.infra st.walloc in
  in_sim st (fun () ->
      let b = Api.get_phys infra in
      let vbns = ref [] in
      (match Api.use b ~payload:(data 0) with
      | Some v -> vbns := v :: !vbns
      | None -> Alcotest.fail "empty bucket");
      (match Api.use b ~payload:(data 1) with
      | Some v -> vbns := v :: !vbns
      | None -> Alcotest.fail "empty bucket");
      (* Consecutive USEs give consecutive VBNs (objective 2). *)
      (match !vbns with
      | [ b1; a ] -> Alcotest.(check int) "contiguous" (a + 1) b1
      | _ -> Alcotest.fail "expected two vbns");
      Api.put infra b;
      (* Let the commit message run. *)
      Wafl_waffinity.Scheduler.drain (Walloc.scheduler st.walloc);
      List.iter
        (fun v ->
          Alcotest.(check bool) "committed in activemap" true
            (Bitmap_file.mem (Aggregate.agg_map st.agg) v))
        !vbns)

let test_infra_equal_progress_per_drive () =
  (* Consume buckets from the cache and check each drive of the RAID
     group is represented exactly once per cycle. *)
  let st = make_stack () in
  let infra = Walloc.infra st.walloc in
  in_sim st (fun () ->
      let drives = ref [] in
      for _ = 1 to 3 do
        let b = Api.get_phys infra in
        (match Bucket.target b with
        | Bucket.Phys { drive; _ } -> drives := drive :: !drives
        | Bucket.Virt _ -> Alcotest.fail "virtual bucket in phys cache");
        Api.put infra b
      done;
      Alcotest.(check (list int)) "one bucket per drive" [ 0; 1; 2 ]
        (List.sort compare !drives))

let test_infra_frees_committed () =
  let st = make_stack () in
  let infra = Walloc.infra st.walloc in
  in_sim st (fun () ->
      (* Allocate a pvbn directly, then free it through the stage path. *)
      Aggregate.commit_alloc_pvbn st.agg 4242;
      let token = Counters.token (Aggregate.counters st.agg) in
      Infra.commit_frees infra ~target:Stage.Phys ~vbns:[| 4242 |] ~token;
      Infra.quiesce_commits infra;
      Alcotest.(check bool) "bit cleared" false (Bitmap_file.mem (Aggregate.agg_map st.agg) 4242);
      Alcotest.(check bool) "frozen until CP" false (Aggregate.pvbn_allocatable st.agg 4242))

let test_infra_virt_bucket_roundtrip () =
  let st = make_stack () in
  let infra = Walloc.infra st.walloc in
  in_sim st (fun () ->
      let b = Api.get_virt infra st.vol in
      (match Api.use_virt b with
      | Some vvbn ->
          Api.put infra b;
          Infra.quiesce_commits infra;
          Alcotest.(check bool) "vvbn committed" true
            (Bitmap_file.mem (Volume.vol_map st.vol) vvbn)
      | None -> Alcotest.fail "virt bucket empty"))

(* --- Cleaner pool --- *)

let test_pool_cleans_and_is_idempotent_on_wait () =
  let st = make_stack () in
  let pool = Walloc.pool st.walloc in
  in_sim st (fun () ->
      let f = Aggregate.create_file st.agg ~vol:(Volume.id st.vol) in
      for fbn = 0 to 9 do
        ignore
          (Aggregate.write st.agg ~vol:(Volume.id st.vol) ~file:(File.id f) ~fbn
             ~content:(Int64.of_int fbn))
      done;
      let snap = Aggregate.cp_snapshot st.agg in
      let work =
        List.concat_map
          (fun (vol, files) ->
            List.map
              (fun file ->
                let fbns = Array.make (File.cp_buffer_count file) 0 in
                File.cp_fbns_into file fbns ~pos:0;
                let len = Array.length fbns in
                { Cleaner_pool.vol; file; fbns; first = 0; len; whole_inode = true })
              files)
          snap
      in
      Cleaner_pool.submit pool work;
      Cleaner_pool.wait_idle pool;
      Cleaner_pool.wait_idle pool;
      (* second wait returns immediately *)
      Alcotest.(check int) "ten buffers cleaned" 10 (Reg.count st.eng "cleaner.buffers");
      Alcotest.(check int) "one inode" 1 (Cleaner_pool.inodes_cleaned pool);
      (* Every cleaned fbn now has a vvbn and a container mapping. *)
      for fbn = 0 to 9 do
        let vvbn = File.vvbn_of_fbn f fbn in
        Alcotest.(check bool) "vvbn assigned" true (vvbn >= 0);
        Alcotest.(check bool) "container mapped" true (Volume.pvbn_of_vvbn st.vol vvbn >= 0)
      done;
      Cleaner_pool.flush_and_wait pool;
      (* Finish the CP so the aggregate is reusable. *)
      Infra.quiesce_commits (Walloc.infra st.walloc);
      Aggregate.publish_superblock st.agg (Aggregate.make_superblock st.agg))

let test_pool_set_active_clamps () =
  let st = make_stack () in
  let pool = Walloc.pool st.walloc in
  in_sim st (fun () ->
      Cleaner_pool.set_active pool 0;
      Alcotest.(check int) "min one" 1 (Cleaner_pool.active pool);
      Cleaner_pool.set_active pool 999;
      Alcotest.(check int) "max clamp" (Cleaner_pool.max_threads pool)
        (Cleaner_pool.active pool))

(* --- Tuner --- *)

let test_tuner_activates_under_load () =
  let cfg =
    {
      Walloc.default_config with
      cleaner_threads = 1;
      max_cleaner_threads = 6;
      dynamic_cleaners = true;
      tuner = { Tuner.interval = 1_000.0; activate_above = 0.5; deactivate_below = 0.2 };
    }
  in
  let st = make_stack ~cfg () in
  let pool = Walloc.pool st.walloc in
  ignore pool;
  in_sim_bounded st ~until:10_000_000.0 (fun () ->
      (* Heavy cleaning load: large file, several CPs. *)
      let f = Aggregate.create_file st.agg ~vol:(Volume.id st.vol) in
      for round = 0 to 2 do
        for fbn = 0 to 2999 do
          ignore
            (Aggregate.write st.agg ~vol:(Volume.id st.vol) ~file:(File.id f) ~fbn
               ~content:(Int64.of_int (round + fbn)))
        done;
        Cp.run_now (Walloc.cp st.walloc)
      done);
  (* Threads are activated during the heavy CPs and correctly dropped
     again once cleaning ends, so inspect the tuner's decision log. *)
  match Walloc.tuner st.walloc with
  | Some tuner ->
      Alcotest.(check bool)
        (Printf.sprintf "threads were activated (%d times)" (Tuner.activations tuner))
        true
        (Tuner.activations tuner > 0)
  | None -> Alcotest.fail "tuner not created" 

let test_tuner_deactivates_when_idle () =
  let cfg =
    {
      Walloc.default_config with
      cleaner_threads = 4;
      max_cleaner_threads = 6;
      dynamic_cleaners = true;
      tuner = { Tuner.interval = 1_000.0; activate_above = 0.9; deactivate_below = 0.5 };
    }
  in
  let st = make_stack ~cfg () in
  let pool = Walloc.pool st.walloc in
  in_sim_bounded st ~until:1_000_000.0 (fun () -> Engine.sleep 20_000.0);
  Alcotest.(check int) "dropped to one" 1 (Cleaner_pool.active pool)

(* --- CP engine specifics --- *)

(* Fiber context: run one CP and return the buffers it cleaned, the
   change in the registry's running total across it. *)
let cp_buffers st cp =
  let before = Reg.count st.eng "cp.buffers_cleaned" in
  Cp.run_now cp;
  Reg.count st.eng "cp.buffers_cleaned" - before

let test_cp_converges_and_counts () =
  let st = make_stack () in
  let cp = Walloc.cp st.walloc in
  let cleaned = ref (-1) in
  in_sim st (fun () ->
      let f = Aggregate.create_file st.agg ~vol:(Volume.id st.vol) in
      for fbn = 0 to 499 do
        ignore
          (Aggregate.write st.agg ~vol:(Volume.id st.vol) ~file:(File.id f) ~fbn
             ~content:(Int64.of_int fbn))
      done;
      cleaned := cp_buffers st cp);
  Alcotest.(check int) "buffers counted" 500 !cleaned;
  Alcotest.(check bool) "meta blocks written" true (Cp.meta_blocks_last_cp cp > 0);
  Alcotest.(check bool)
    (Printf.sprintf "fixpoint converged in %d passes" (Cp.meta_passes_last_cp cp))
    true
    (Cp.meta_passes_last_cp cp <= 8);
  Alcotest.(check string) "idle after CP" "idle" (Cp.phase cp)

let test_cp_empty_is_cheap_and_correct () =
  let st = make_stack () in
  let cp = Walloc.cp st.walloc in
  let cleaned = ref (-1) in
  in_sim st (fun () ->
      Cp.run_now cp;
      cleaned := cp_buffers st cp);
  Alcotest.(check int) "two CPs" 2 (Cp.cps_completed cp);
  Alcotest.(check int) "nothing cleaned" 0 !cleaned;
  Aggregate.fsck st.agg

let test_cp_batching_reduces_messages () =
  let messages_with batching =
    let cfg = { Walloc.default_config with batching } in
    let st = make_stack ~cfg () in
    in_sim st (fun () ->
        (* Many small files: one dirty buffer each. *)
        for _ = 1 to 60 do
          let f = Aggregate.create_file st.agg ~vol:(Volume.id st.vol) in
          ignore
            (Aggregate.write st.agg ~vol:(Volume.id st.vol) ~file:(File.id f) ~fbn:0
               ~content:1L)
        done;
        Cp.run_now (Walloc.cp st.walloc));
    Reg.count st.eng "cleaner.messages"
  in
  let batched = messages_with true and unbatched = messages_with false in
  Alcotest.(check bool)
    (Printf.sprintf "batching reduces messages (%d vs %d)" batched unbatched)
    true
    (batched * 4 <= unbatched);
  Alcotest.(check int) "unbatched is one per inode" 60 unbatched

let test_cp_segments_large_inode () =
  let cfg = { Walloc.default_config with segment_buffers = 100 } in
  let st = make_stack ~cfg () in
  let pool = Walloc.pool st.walloc in
  in_sim st (fun () ->
      let f = Aggregate.create_file st.agg ~vol:(Volume.id st.vol) in
      for fbn = 0 to 449 do
        ignore
          (Aggregate.write st.agg ~vol:(Volume.id st.vol) ~file:(File.id f) ~fbn
             ~content:(Int64.of_int fbn))
      done;
      Cp.run_now (Walloc.cp st.walloc));
  (* 450 buffers / 100 per segment = 5 messages for one inode. *)
  Alcotest.(check int) "five segments" 5 (Reg.count st.eng "cleaner.messages");
  Alcotest.(check int) "inode counted once" 1 (Cleaner_pool.inodes_cleaned pool);
  Alcotest.(check int) "all buffers cleaned" 450 (Reg.count st.eng "cleaner.buffers");
  Aggregate.fsck st.agg

let () =
  Alcotest.run "wafl_core"
    [
      ( "bucket",
        [
          Alcotest.test_case "take order" `Quick test_bucket_take_order;
          Alcotest.test_case "kind constraints" `Quick test_bucket_kind_constraints;
          Alcotest.test_case "api kind check" `Quick test_api_use_virt_on_phys_rejected;
        ] );
      ("stage", [ Alcotest.test_case "fill and drain" `Quick test_stage_fill_drain ]);
      ( "tetris",
        [
          Alcotest.test_case "submits on last bucket" `Quick test_tetris_submits_on_last_bucket;
          Alcotest.test_case "late blocks not lost" `Quick test_tetris_submit_now_then_more;
        ] );
      ( "infra",
        [
          Alcotest.test_case "initial fill" `Quick test_infra_initial_fill;
          Alcotest.test_case "get/use/put commit cycle" `Quick
            test_infra_get_use_put_commit_cycle;
          Alcotest.test_case "equal progress per drive" `Quick
            test_infra_equal_progress_per_drive;
          Alcotest.test_case "frees committed and frozen" `Quick test_infra_frees_committed;
          Alcotest.test_case "virt bucket roundtrip" `Quick test_infra_virt_bucket_roundtrip;
        ] );
      ( "alloc-guard",
        [
          Alcotest.test_case "clean to disk, per block" `Quick test_alloc_clean_to_disk;
          Alcotest.test_case "cp words per data block" `Quick test_alloc_cp_per_block;
        ] );
      ( "cleaner_pool",
        [
          Alcotest.test_case "cleans buffers" `Quick test_pool_cleans_and_is_idempotent_on_wait;
          Alcotest.test_case "set_active clamps" `Quick test_pool_set_active_clamps;
        ] );
      ( "tuner",
        [
          Alcotest.test_case "activates under load" `Quick test_tuner_activates_under_load;
          Alcotest.test_case "deactivates when idle" `Quick test_tuner_deactivates_when_idle;
        ] );
      ( "cp",
        [
          Alcotest.test_case "converges and counts" `Quick test_cp_converges_and_counts;
          Alcotest.test_case "empty CP" `Quick test_cp_empty_is_cheap_and_correct;
          Alcotest.test_case "batching reduces messages" `Quick
            test_cp_batching_reduces_messages;
          Alcotest.test_case "large inode segmented" `Quick test_cp_segments_large_inode;
        ] );
    ]
