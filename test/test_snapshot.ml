(* Snapshot tests: point-in-time read-back, block pinning, space
   accounting, persistence across crashes, interaction with deletion.
   Snapshots are the strongest consumer of the copy-on-write guarantee:
   any allocator bug that reuses a referenced block corrupts them. *)

open Wafl_sim
open Wafl_fs
module Geometry = Wafl_storage.Geometry

let small_geometry () =
  Geometry.create ~drive_blocks:8192 ~aa_stripes:512 ~raid_groups:[ (3, 1); (3, 1) ] ()

type env = {
  eng : Engine.t;
  agg : Aggregate.t;
  walloc : Wafl_core.Walloc.t;
  vol : Volume.t;
}

let make_env () =
  let eng = Engine.create ~cores:8 () in
  let agg =
    Aggregate.create eng ~cost:Cost.default ~geometry:(small_geometry ()) ~nvlog_half:4096 ()
  in
  let walloc = Wafl_core.Walloc.create agg Wafl_core.Walloc.default_config in
  let env = ref None in
  ignore
    (Engine.spawn eng ~label:"setup" (fun () ->
         let vol = Aggregate.create_volume agg ~vvbn_space:65536 in
         Wafl_core.Walloc.register_volume walloc vol;
         env := Some vol));
  Engine.run eng;
  { eng; agg; walloc; vol = Option.get !env }

let in_sim env body =
  ignore (Engine.spawn env.eng ~label:"test" (fun () -> body ()));
  Engine.run env.eng

let token ~gen ~fbn = Int64.of_int ((gen * 1_000_000) + fbn)

let write_gen env f ~blocks ~gen =
  for fbn = 0 to blocks - 1 do
    ignore
      (Aggregate.write env.agg ~vol:(Volume.id env.vol) ~file:(File.id f) ~fbn
         ~content:(token ~gen ~fbn))
  done

let run_cp env = Wafl_core.Cp.run_now (Wafl_core.Walloc.cp env.walloc)

let test_snapshot_reads_past () =
  let env = make_env () in
  in_sim env (fun () ->
      let f = Aggregate.create_file env.agg ~vol:(Volume.id env.vol) in
      write_gen env f ~blocks:200 ~gen:0;
      run_cp env;
      let snap = Aggregate.create_snapshot env.agg ~name:"nightly" in
      (* Overwrite everything twice so the old blocks would normally be
         reused. *)
      write_gen env f ~blocks:200 ~gen:1;
      run_cp env;
      write_gen env f ~blocks:200 ~gen:2;
      run_cp env;
      (* Active view sees gen 2; the snapshot still reads gen 0. *)
      for fbn = 0 to 199 do
        (match Aggregate.read env.agg ~vol:(Volume.id env.vol) ~file:(File.id f) ~fbn with
        | Some c when c = token ~gen:2 ~fbn -> ()
        | _ -> Alcotest.failf "active fbn %d: wrong content" fbn);
        match Aggregate.read_snapshot env.agg snap ~vol:(Volume.id env.vol) ~file:(File.id f) ~fbn with
        | Some c when c = token ~gen:0 ~fbn -> ()
        | Some c -> Alcotest.failf "snapshot fbn %d: got %Ld" fbn c
        | None -> Alcotest.failf "snapshot fbn %d: hole" fbn
      done);
  Aggregate.fsck env.agg

let test_snapshot_pins_space_until_delete () =
  let env = make_env () in
  let free_at_snap = ref 0 and free_with_snap = ref 0 in
  in_sim env (fun () ->
      let f = Aggregate.create_file env.agg ~vol:(Volume.id env.vol) in
      write_gen env f ~blocks:300 ~gen:0;
      run_cp env;
      free_at_snap := Counters.read (Aggregate.counters env.agg) "agg_free_blocks";
      let snap = Aggregate.create_snapshot env.agg ~name:"pin" in
      write_gen env f ~blocks:300 ~gen:1;
      run_cp env;
      run_cp env;
      free_with_snap := Counters.read (Aggregate.counters env.agg) "agg_free_blocks";
      (* The overwrite could not reuse the snapshot's ~300 data blocks. *)
      Alcotest.(check bool)
        (Printf.sprintf "space pinned (%d -> %d)" !free_at_snap !free_with_snap)
        true
        (!free_with_snap <= !free_at_snap - 250);
      Alcotest.(check bool) "held counter positive" true
        (Counters.read (Aggregate.counters env.agg) "snapshot_held_blocks" > 250);
      Aggregate.fsck env.agg;
      Aggregate.delete_snapshot env.agg snap;
      let free_after = Counters.read (Aggregate.counters env.agg) "agg_free_blocks" in
      Alcotest.(check bool)
        (Printf.sprintf "space released (%d -> %d)" !free_with_snap free_after)
        true
        (free_after >= !free_at_snap - 64);
      Alcotest.(check int) "held counter zero" 0
        (Counters.read (Aggregate.counters env.agg) "snapshot_held_blocks"));
  Aggregate.fsck env.agg

let test_snapshot_survives_crash () =
  let env = make_env () in
  in_sim env (fun () ->
      let f = Aggregate.create_file env.agg ~vol:(Volume.id env.vol) in
      write_gen env f ~blocks:100 ~gen:0;
      run_cp env;
      ignore (Aggregate.create_snapshot env.agg ~name:"persist-me");
      write_gen env f ~blocks:100 ~gen:1;
      (* This CP persists the snapshot root in the superblock. *)
      run_cp env);
  let pers = Aggregate.crash env.agg in
  let eng2 = Engine.create ~cores:8 () in
  let agg2 = Aggregate.recover eng2 ~cost:Cost.default pers in
  (match Aggregate.find_snapshot agg2 "persist-me" with
  | None -> Alcotest.fail "snapshot lost across crash"
  | Some snap ->
      for fbn = 0 to 99 do
        match Aggregate.read_snapshot agg2 snap ~vol:0 ~file:0 ~fbn with
        | Some c when c = token ~gen:0 ~fbn -> ()
        | _ -> Alcotest.failf "snapshot fbn %d: wrong content after recovery" fbn
      done);
  Aggregate.fsck agg2

let test_snapshot_protects_deleted_file () =
  let env = make_env () in
  in_sim env (fun () ->
      let f = Aggregate.create_file env.agg ~vol:(Volume.id env.vol) in
      write_gen env f ~blocks:150 ~gen:0;
      run_cp env;
      let snap = Aggregate.create_snapshot env.agg ~name:"before-delete" in
      Aggregate.delete_file env.agg ~vol:(Volume.id env.vol) ~file:(File.id f);
      run_cp env;
      run_cp env;
      Alcotest.(check bool) "file gone from active" true
        (Volume.file env.vol (File.id f) = None);
      (* The snapshot still reads the deleted file's data. *)
      for fbn = 0 to 149 do
        match
          Aggregate.read_snapshot env.agg snap ~vol:(Volume.id env.vol) ~file:(File.id f) ~fbn
        with
        | Some c when c = token ~gen:0 ~fbn -> ()
        | _ -> Alcotest.failf "snapshot fbn %d: deleted file unreadable" fbn
      done);
  Aggregate.fsck env.agg

let test_multiple_snapshots_generations () =
  let env = make_env () in
  in_sim env (fun () ->
      let f = Aggregate.create_file env.agg ~vol:(Volume.id env.vol) in
      let snaps = ref [] in
      for gen = 0 to 2 do
        write_gen env f ~blocks:100 ~gen;
        run_cp env;
        snaps := Aggregate.create_snapshot env.agg ~name:(Printf.sprintf "gen%d" gen) :: !snaps
      done;
      write_gen env f ~blocks:100 ~gen:3;
      run_cp env;
      (* Each snapshot reads its own generation. *)
      List.iteri
        (fun i snap ->
          let gen = 2 - i in
          for fbn = 0 to 99 do
            match
              Aggregate.read_snapshot env.agg snap ~vol:(Volume.id env.vol) ~file:(File.id f)
                ~fbn
            with
            | Some c when c = token ~gen ~fbn -> ()
            | _ -> Alcotest.failf "snapshot gen%d fbn %d: wrong content" gen fbn
          done)
        !snaps;
      (* Delete the middle snapshot; the others stay valid. *)
      (match Aggregate.find_snapshot env.agg "gen1" with
      | Some s -> Aggregate.delete_snapshot env.agg s
      | None -> Alcotest.fail "gen1 missing");
      Aggregate.fsck env.agg;
      List.iter
        (fun name ->
          match Aggregate.find_snapshot env.agg name with
          | Some snap ->
              let gen = if name = "gen0" then 0 else 2 in
              for fbn = 0 to 99 do
                match
                  Aggregate.read_snapshot env.agg snap ~vol:(Volume.id env.vol)
                    ~file:(File.id f) ~fbn
                with
                | Some c when c = token ~gen ~fbn -> ()
                | _ -> Alcotest.failf "%s fbn %d: wrong after deleting sibling" name fbn
              done
          | None -> Alcotest.failf "%s missing" name)
        [ "gen0"; "gen2" ]);
  Aggregate.fsck env.agg

let test_snapshot_guards () =
  let env = make_env () in
  in_sim env (fun () ->
      (* No CP yet: nothing to pin. *)
      (try
         ignore (Aggregate.create_snapshot env.agg ~name:"too-early");
         Alcotest.fail "snapshot before first CP should be rejected"
       with Invalid_argument _ -> ());
      let f = Aggregate.create_file env.agg ~vol:(Volume.id env.vol) in
      write_gen env f ~blocks:10 ~gen:0;
      run_cp env;
      ignore (Aggregate.create_snapshot env.agg ~name:"dup");
      try
        ignore (Aggregate.create_snapshot env.agg ~name:"dup");
        Alcotest.fail "duplicate snapshot name should be rejected"
      with Invalid_argument _ -> ())

let test_snapshot_holes_and_absent_files () =
  let env = make_env () in
  in_sim env (fun () ->
      let f = Aggregate.create_file env.agg ~vol:(Volume.id env.vol) in
      write_gen env f ~blocks:10 ~gen:0;
      run_cp env;
      let snap = Aggregate.create_snapshot env.agg ~name:"s" in
      Alcotest.(check (option int64)) "hole" None
        (Aggregate.read_snapshot env.agg snap ~vol:(Volume.id env.vol) ~file:(File.id f)
           ~fbn:5000);
      Alcotest.(check (option int64)) "absent file" None
        (Aggregate.read_snapshot env.agg snap ~vol:(Volume.id env.vol) ~file:999 ~fbn:0);
      Alcotest.(check (option int64)) "absent volume" None
        (Aggregate.read_snapshot env.agg snap ~vol:42 ~file:0 ~fbn:0))

(* Snapshot reads go through the RAID read path, so the fault plan
   applies to blocks only a snapshot still holds.  [with_snapshot_only_block]
   pins gen 0 of a file, overwrites it, attaches a plan and hands the
   body the pvbn that now holds fbn 7 for the snapshot alone. *)
let with_snapshot_only_block body =
  let env = make_env () in
  in_sim env (fun () ->
      let f = Aggregate.create_file env.agg ~vol:(Volume.id env.vol) in
      write_gen env f ~blocks:50 ~gen:0;
      run_cp env;
      let snap = Aggregate.create_snapshot env.agg ~name:"held" in
      let pvbn = Volume.pvbn_of_vvbn env.vol (File.vvbn_of_fbn f 7) in
      write_gen env f ~blocks:50 ~gen:1;
      run_cp env;
      run_cp env;
      Alcotest.(check bool) "moved by the overwrite" true
        (Volume.pvbn_of_vvbn env.vol (File.vvbn_of_fbn f 7) <> pvbn);
      Alcotest.(check bool) "held by the snapshot" true (Aggregate.snapshot_held env.agg pvbn);
      let plan = Wafl_storage.Fault.create ~seed:1 () in
      Wafl_storage.Disk.set_fault (Aggregate.disk env.agg) plan;
      Wafl_storage.Fault.add_media_error plan pvbn;
      body env plan pvbn (fun () ->
          Aggregate.read_snapshot env.agg snap ~vol:(Volume.id env.vol) ~file:(File.id f) ~fbn:7))

let test_snapshot_media_error_reconstructed () =
  with_snapshot_only_block (fun _ plan pvbn read ->
      Alcotest.(check (option int64)) "reconstructed" (Some (token ~gen:0 ~fbn:7)) (read ());
      Alcotest.(check int) "counted" 1 (Wafl_storage.Fault.media_errors_seen plan);
      Alcotest.(check bool) "sector repaired" false (Wafl_storage.Fault.media_error plan pvbn))

let test_snapshot_lost_block_is_corruption () =
  with_snapshot_only_block (fun env plan pvbn read ->
      let g = Aggregate.geometry env.agg in
      let loc = Geometry.locate g pvbn in
      let peer = if loc.Geometry.drive = 0 then 1 else 0 in
      Wafl_storage.Fault.fail_disk plan ~rg:loc.Geometry.rg ~drive:peer
        ~at:(Engine.now env.eng);
      (match read () with
      | _ -> Alcotest.fail "a block lost in a degraded group read as good data"
      | exception Aggregate.Corruption _ -> ());
      Alcotest.(check int) "counted unrecoverable" 1
        (Wafl_storage.Fault.unrecoverable_reads plan))

(* A published tree whose location tables point a metafile block at a
   block of another kind.  [misplace locations ~index pvbn] moves entry
   [index] of a superblock's location table to [pvbn]. *)
let misplace locations ~index pvbn =
  Array.iteri (fun i (idx, _) -> if idx = index then locations.(i) <- (idx, pvbn)) locations

let test_recover_names_wrong_payload () =
  let env = make_env () in
  in_sim env (fun () ->
      let f = Aggregate.create_file env.agg ~vol:(Volume.id env.vol) in
      write_gen env f ~blocks:100 ~gen:0;
      run_cp env);
  let vr = List.hd (Option.get (Aggregate.superblock env.agg)).Layout.vols in
  let volmap_index, volmap_pvbn = vr.Layout.volmap_pvbns.(0) in
  misplace vr.Layout.inode_chunk_pvbns ~index:0 volmap_pvbn;
  match Aggregate.recover (Engine.create ~cores:8 ()) ~cost:Cost.default (Aggregate.crash env.agg) with
  | _ -> Alcotest.fail "recovered a tree whose inode chunk is a volume-map chunk"
  | exception Aggregate.Corruption m ->
      Alcotest.(check string) "kind, owner, index and pvbn"
        (Printf.sprintf "recovery: vol 0 inode chunk 0 at pvbn %d: holds vol 0 volmap chunk %d"
           volmap_pvbn volmap_index)
        m

let test_snapshot_malformed_tree_is_corruption () =
  let env = make_env () in
  in_sim env (fun () ->
      let f = Aggregate.create_file env.agg ~vol:(Volume.id env.vol) in
      write_gen env f ~blocks:10 ~gen:0;
      run_cp env;
      let snap = Aggregate.create_snapshot env.agg ~name:"bent" in
      let vr = List.hd (Snapshot.superblock snap).Layout.vols in
      let _, inode_pvbn = vr.Layout.inode_chunk_pvbns.(0) in
      let index = File.vvbn_of_fbn f 3 / Layout.entries_per_container_block in
      misplace vr.Layout.container_pvbns ~index inode_pvbn;
      match
        Aggregate.read_snapshot env.agg snap ~vol:(Volume.id env.vol) ~file:(File.id f) ~fbn:3
      with
      | _ -> Alcotest.fail "read through a container chunk that is an inode chunk"
      | exception Aggregate.Corruption m ->
          Alcotest.(check string) "kind, owner, index and pvbn"
            (Printf.sprintf "vol 0 container chunk %d at pvbn %d: holds vol 0 inode chunk 0" index
               inode_pvbn)
            m)

let prop_snapshot_immutable_under_random_traffic =
  QCheck.Test.make ~name:"snapshot content immutable under random overwrites" ~count:6
    QCheck.(int_bound 10_000)
    (fun seed ->
      let env = make_env () in
      let r = Wafl_util.Rng.create ~seed in
      let blocks = 150 in
      let ok = ref true in
      in_sim env (fun () ->
          let f = Aggregate.create_file env.agg ~vol:(Volume.id env.vol) in
          write_gen env f ~blocks ~gen:0;
          run_cp env;
          let snap = Aggregate.create_snapshot env.agg ~name:"frozen" in
          (* Random overwrite traffic across several CPs. *)
          for round = 1 to 4 do
            for _ = 1 to 300 do
              let fbn = Wafl_util.Rng.int r blocks in
              ignore
                (Aggregate.write env.agg ~vol:(Volume.id env.vol) ~file:(File.id f) ~fbn
                   ~content:(token ~gen:round ~fbn))
            done;
            run_cp env
          done;
          for fbn = 0 to blocks - 1 do
            match
              Aggregate.read_snapshot env.agg snap ~vol:(Volume.id env.vol) ~file:(File.id f)
                ~fbn
            with
            | Some c when c = token ~gen:0 ~fbn -> ()
            | _ -> ok := false
          done);
      Aggregate.fsck env.agg;
      !ok)

(* --- operator reports (Report uses snapshots, so tested here) --- *)

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

let test_reports () =
  let env = make_env () in
  in_sim env (fun () ->
      let f = Aggregate.create_file env.agg ~vol:(Volume.id env.vol) in
      write_gen env f ~blocks:100 ~gen:0;
      run_cp env;
      ignore (Aggregate.create_snapshot env.agg ~name:"report-me");
      write_gen env f ~blocks:100 ~gen:1;
      run_cp env;
      for fbn = 0 to 99 do
        ignore (Aggregate.read env.agg ~vol:(Volume.id env.vol) ~file:(File.id f) ~fbn)
      done;
      let space = Report.space env.agg in
      Alcotest.(check bool) "space mentions the aggregate" true (contains space "aggregate:");
      Alcotest.(check bool) "space mentions the volume" true (contains space "volume 0:");
      Alcotest.(check bool) "space reports cache hit rate" true (contains space "hit rate");
      Alcotest.(check bool) "space reports snapshot-held blocks" true
        (contains space "snapshot-held");
      let snaps = Report.snapshots env.agg in
      Alcotest.(check bool) "snapshot listed by name" true (contains snaps "report-me");
      let aas = Report.allocation_areas env.agg in
      Alcotest.(check bool) "AA report covers both groups" true
        (contains aas "raid group 0" && contains aas "raid group 1"))

let test_report_no_snapshots () =
  let env = make_env () in
  Alcotest.(check string) "empty snapshot list" "no snapshots\n" (Report.snapshots env.agg)

let () =
  Alcotest.run "snapshots"
    [
      ( "snapshot",
        [
          Alcotest.test_case "reads the past" `Quick test_snapshot_reads_past;
          Alcotest.test_case "pins space until delete" `Quick
            test_snapshot_pins_space_until_delete;
          Alcotest.test_case "survives crash" `Quick test_snapshot_survives_crash;
          Alcotest.test_case "protects deleted file" `Quick test_snapshot_protects_deleted_file;
          Alcotest.test_case "multiple generations" `Quick test_multiple_snapshots_generations;
          Alcotest.test_case "creation guards" `Quick test_snapshot_guards;
          Alcotest.test_case "holes and absent files" `Quick
            test_snapshot_holes_and_absent_files;
          QCheck_alcotest.to_alcotest ~verbose:false
            prop_snapshot_immutable_under_random_traffic;
          Alcotest.test_case "media error reconstructed" `Quick
            test_snapshot_media_error_reconstructed;
          Alcotest.test_case "lost block is corruption" `Quick
            test_snapshot_lost_block_is_corruption;
          Alcotest.test_case "malformed tree is corruption" `Quick
            test_snapshot_malformed_tree_is_corruption;
          Alcotest.test_case "recovery names a wrong payload" `Quick
            test_recover_names_wrong_payload;
        ] );
      ( "reports",
        [
          Alcotest.test_case "space/snapshots/AA reports" `Quick test_reports;
          Alcotest.test_case "no snapshots" `Quick test_report_no_snapshots;
        ] );
    ]
