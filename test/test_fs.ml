(* Unit tests for Wafl_fs: bitmap metafiles, files, volumes, NVLog,
   loose-accounting counters and aggregate-level allocation state. *)

open Wafl_fs

(* --- Bitmap_file --- *)

let test_bitmap_set_clear () =
  let b = Bitmap_file.create ~bits:100_000 in
  Alcotest.(check int) "all free" 100_000 (Bitmap_file.free_count b);
  Bitmap_file.set b 5;
  Bitmap_file.set b 99_999;
  Alcotest.(check bool) "bit set" true (Bitmap_file.mem b 5);
  Alcotest.(check bool) "other clear" false (Bitmap_file.mem b 6);
  Alcotest.(check int) "free count" 99_998 (Bitmap_file.free_count b);
  Alcotest.(check int) "used count" 2 (Bitmap_file.used_count b);
  Bitmap_file.clear b 5;
  Alcotest.(check int) "freed" 99_999 (Bitmap_file.free_count b)

let test_bitmap_double_ops_rejected () =
  let b = Bitmap_file.create ~bits:64 in
  Bitmap_file.set b 3;
  Alcotest.check_raises "double alloc"
    (Invalid_argument "Bitmap_file.set: bit 3 already allocated") (fun () ->
      Bitmap_file.set b 3);
  Bitmap_file.clear b 3;
  Alcotest.check_raises "double free" (Invalid_argument "Bitmap_file.clear: bit 3 already free")
    (fun () -> Bitmap_file.clear b 3)

let test_bitmap_find_free () =
  let b = Bitmap_file.create ~bits:1024 in
  for i = 0 to 99 do
    Bitmap_file.set b i
  done;
  Alcotest.(check (option int)) "first free" (Some 100)
    (Bitmap_file.find_free b ~lo:0 ~hi:1023 ~start:0);
  Alcotest.(check (option int)) "from start" (Some 200)
    (Bitmap_file.find_free b ~lo:0 ~hi:1023 ~start:200);
  Alcotest.(check (option int)) "within used range" None
    (Bitmap_file.find_free b ~lo:0 ~hi:99 ~start:0);
  Bitmap_file.set b 100;
  Alcotest.(check (option int)) "skips newly used" (Some 101)
    (Bitmap_file.find_free b ~lo:0 ~hi:1023 ~start:0)

let test_bitmap_find_free_word_boundaries () =
  let b = Bitmap_file.create ~bits:256 in
  (* Fill everything except bit 63 and bit 128. *)
  for i = 0 to 255 do
    if i <> 63 && i <> 128 then Bitmap_file.set b i
  done;
  Alcotest.(check (option int)) "end of word" (Some 63)
    (Bitmap_file.find_free b ~lo:0 ~hi:255 ~start:0);
  Alcotest.(check (option int)) "start of later word" (Some 128)
    (Bitmap_file.find_free b ~lo:0 ~hi:255 ~start:64);
  Alcotest.(check (option int)) "bounded below 128" None
    (Bitmap_file.find_free b ~lo:64 ~hi:127 ~start:64)

let test_bitmap_count_free_in () =
  let b = Bitmap_file.create ~bits:2048 in
  for i = 100 to 299 do
    Bitmap_file.set b i
  done;
  Alcotest.(check int) "range fully free" 100 (Bitmap_file.count_free_in b ~lo:1000 ~hi:1099);
  Alcotest.(check int) "range fully used" 0 (Bitmap_file.count_free_in b ~lo:100 ~hi:299);
  Alcotest.(check int) "mixed range" 100 (Bitmap_file.count_free_in b ~lo:0 ~hi:199)

let test_bitmap_dirty_tracking () =
  let b = Bitmap_file.create ~bits:(3 * Layout.bits_per_map_block) in
  Alcotest.(check (list int)) "clean" [] (Bitmap_file.dirty_blocks b);
  Bitmap_file.set b 0;
  Bitmap_file.set b (Layout.bits_per_map_block + 1);
  Alcotest.(check (list int)) "two dirty blocks" [ 0; 1 ] (Bitmap_file.dirty_blocks b);
  Bitmap_file.clear_dirty b;
  Alcotest.(check (list int)) "cleared" [] (Bitmap_file.dirty_blocks b);
  Bitmap_file.clear b 0;
  Alcotest.(check (list int)) "free dirties too" [ 0 ] (Bitmap_file.dirty_blocks b)

let test_bitmap_block_roundtrip () =
  let b = Bitmap_file.create ~bits:(2 * Layout.bits_per_map_block) in
  List.iter (Bitmap_file.set b) [ 0; 63; 64; 32767; 32768; 40000 ];
  let w0 = Bitmap_file.words_of_block b 0 in
  let w1 = Bitmap_file.words_of_block b 1 in
  let b2 = Bitmap_file.create ~bits:(2 * Layout.bits_per_map_block) in
  Bitmap_file.load_block b2 0 w0;
  Bitmap_file.load_block b2 1 w1;
  Alcotest.(check int) "free count reconstructed" (Bitmap_file.free_count b)
    (Bitmap_file.free_count b2);
  List.iter
    (fun bit -> Alcotest.(check bool) "bit survives" true (Bitmap_file.mem b2 bit))
    [ 0; 63; 64; 32767; 32768; 40000 ]

let test_bitmap_locations () =
  let b = Bitmap_file.create ~bits:(2 * Layout.bits_per_map_block) in
  Alcotest.(check int) "unknown" (-1) (Bitmap_file.location b 0);
  Alcotest.(check int) "old none" (-1) (Bitmap_file.set_location b 0 500);
  Alcotest.(check int) "old returned" 500 (Bitmap_file.set_location b 0 900);
  Alcotest.(check int) "current" 900 (Bitmap_file.location b 0)

let prop_bitmap_free_count_consistent =
  QCheck.Test.make ~name:"free count matches bit population" ~count:100
    QCheck.(list_of_size Gen.(1 -- 200) (int_bound 8191))
    (fun bits ->
      let b = Bitmap_file.create ~bits:8192 in
      let distinct = List.sort_uniq compare bits in
      List.iter (Bitmap_file.set b) distinct;
      Bitmap_file.free_count b = 8192 - List.length distinct
      && Bitmap_file.count_free_in b ~lo:0 ~hi:8191 = Bitmap_file.free_count b)

(* The free-bit walk against a loop of [find_free] calls: same bits,
   same [words_scanned] charge.  Maps mix full, empty and random words;
   ranges start and end mid-word, and a third are a single bit. *)
let walk_case_gen =
  QCheck.Gen.(
    let word =
      frequency
        [
          (1, return (Array.make 64 false));
          (2, return (Array.make 64 true));
          (3, array_repeat 64 bool);
        ]
    in
    int_range 1 6 >>= fun nwords ->
    list_repeat nwords word >>= fun words ->
    let nbits = 64 * nwords in
    int_bound (nbits - 1) >>= fun lo ->
    frequency [ (1, return lo); (2, int_range lo (nbits - 1)) ] >>= fun hi ->
    return (Array.concat words, lo, hi))

let prop_bitmap_walk_matches_find_free =
  let print (used, lo, hi) =
    Printf.sprintf "lo=%d hi=%d used=%s" lo hi
      (String.concat "" (Array.to_list (Array.map (fun u -> if u then "1" else "0") used)))
  in
  QCheck.Test.make ~name:"free-bit walk matches repeated find_free" ~count:500
    (QCheck.make ~print walk_case_gen)
    (fun (used, lo, hi) ->
      let b = Bitmap_file.create ~bits:(Array.length used) in
      Array.iteri (fun i u -> if u then Bitmap_file.set b i) used;
      let scanned f =
        let before = Bitmap_file.words_scanned b in
        let bits = f () in
        (bits, Bitmap_file.words_scanned b - before)
      in
      let walk () =
        let acc = ref [] in
        Bitmap_file.iter_free b ~lo ~hi (fun v -> acc := v :: !acc);
        List.rev !acc
      in
      let rec loop acc pos =
        if pos > hi then List.rev acc
        else
          match Bitmap_file.find_free b ~lo ~hi ~start:pos with
          | None -> List.rev acc
          | Some v -> loop (v :: acc) (v + 1)
      in
      scanned walk = scanned (fun () -> loop [] lo))

(* --- File --- *)

(* A file's snapshot as ascending (fbn, content) pairs. *)
let cp_buffers f =
  let fbns = Array.make (File.cp_buffer_count f) 0 in
  File.cp_fbns_into f fbns ~pos:0;
  Array.to_list (Array.map (fun fbn -> (fbn, File.cp_content f fbn)) fbns)

let test_file_write_snapshot_cow () =
  let f = File.create ~vol:0 ~id:1 in
  File.write f ~fbn:10 ~content:100L;
  File.write f ~fbn:11 ~content:110L;
  Alcotest.(check int) "front dirty" 2 (File.dirty_front f);
  File.cp_snapshot f;
  Alcotest.(check int) "front empty after snapshot" 0 (File.dirty_front f);
  Alcotest.(check int) "cp holds both" 2 (File.cp_buffer_count f);
  (* Write during CP: in-memory COW; snapshot untouched. *)
  File.write f ~fbn:10 ~content:999L;
  Alcotest.(check (list (pair int int64))) "snapshot unchanged"
    [ (10, 100L); (11, 110L) ]
    (cp_buffers f);
  Alcotest.(check (option int64)) "read sees newest" (Some 999L) (File.read_cached f ~fbn:10);
  Alcotest.(check (option int64)) "cp visible through cache" (Some 110L)
    (File.read_cached f ~fbn:11);
  File.cp_done f;
  Alcotest.(check (option int64)) "cp buffer gone" None (File.read_cached f ~fbn:11);
  Alcotest.(check (option int64)) "front survives" (Some 999L) (File.read_cached f ~fbn:10)

let test_file_double_snapshot_rejected () =
  let f = File.create ~vol:0 ~id:1 in
  File.write f ~fbn:0 ~content:1L;
  File.cp_snapshot f;
  Alcotest.check_raises "second snapshot"
    (Invalid_argument "File.cp_snapshot: previous CP not finished") (fun () ->
      File.cp_snapshot f)

let test_file_bmap_and_inode_rec () =
  let f = File.create ~vol:0 ~id:7 in
  Alcotest.(check int) "hole" (-1) (File.vvbn_of_fbn f 5);
  Alcotest.(check int) "no old vvbn" (-1) (File.set_vvbn f ~fbn:5 ~vvbn:1000);
  Alcotest.(check int) "old vvbn returned" 1000 (File.set_vvbn f ~fbn:5 ~vvbn:2000);
  Alcotest.(check (list int)) "bmap block 0 dirty" [ 0 ] (File.dirty_bmap_blocks f);
  ignore (File.set_vvbn f ~fbn:600 ~vvbn:3000);
  Alcotest.(check (list int)) "second bmap block dirty" [ 0; 1 ] (File.dirty_bmap_blocks f);
  ignore (File.set_bmap_location f 0 42);
  ignore (File.set_bmap_location f 1 43);
  File.write f ~fbn:600 ~content:0L;
  let r = File.inode_rec f in
  Alcotest.(check int) "id" 7 r.Layout.file_id;
  Alcotest.(check int) "nfbns" 601 r.Layout.nfbns;
  Alcotest.(check int) "two bmap blocks" 2 (Array.length r.Layout.bmap_pvbns);
  (* Round-trip through the persistent representation. *)
  let f2 = File.of_inode_rec ~vol:0 r in
  File.load_bmap_block f2 ~index:0 ~entries:(File.bmap_entries f 0);
  File.load_bmap_block f2 ~index:1 ~entries:(File.bmap_entries f 1);
  Alcotest.(check int) "vvbn restored" 2000 (File.vvbn_of_fbn f2 5);
  Alcotest.(check int) "vvbn restored 2" 3000 (File.vvbn_of_fbn f2 600)

(* --- Volume --- *)

let test_volume_dirty_inode_tracking () =
  let v = Volume.create ~id:0 ~vvbn_space:10_000 in
  let f1 = File.create ~vol:0 ~id:(Volume.fresh_file_id v) in
  let f2 = File.create ~vol:0 ~id:(Volume.fresh_file_id v) in
  Volume.add_file v f1;
  Volume.add_file v f2;
  File.write f1 ~fbn:0 ~content:1L;
  Volume.note_dirty v f1;
  Volume.note_dirty v f1;
  Alcotest.(check int) "idempotent note_dirty" 1 (Volume.dirty_inode_count v);
  File.write f2 ~fbn:0 ~content:2L;
  Volume.note_dirty v f2;
  let snap = Volume.cp_snapshot v in
  Alcotest.(check int) "two files snapshotted" 2 (List.length snap);
  Alcotest.(check int) "dirty list emptied" 0 (Volume.dirty_inode_count v);
  Alcotest.(check int) "buffers frozen" 1 (File.cp_buffer_count f1);
  Volume.cp_done v;
  Alcotest.(check int) "cp buffers released" 0 (File.cp_buffer_count f1)

let test_volume_container_map () =
  let v = Volume.create ~id:3 ~vvbn_space:10_000 in
  Alcotest.(check int) "unmapped" (-1) (Volume.pvbn_of_vvbn v 100);
  Alcotest.(check int) "no previous" (-1) (Volume.map_vvbn v ~vvbn:100 ~pvbn:777);
  Alcotest.(check int) "mapped" 777 (Volume.pvbn_of_vvbn v 100);
  Alcotest.(check int) "previous returned" 777 (Volume.map_vvbn v ~vvbn:100 ~pvbn:(-1));
  Alcotest.(check int) "cleared" (-1) (Volume.pvbn_of_vvbn v 100);
  Alcotest.(check (list int)) "chunk dirty" [ 0 ] (Volume.dirty_container_chunks v)

(* The vvbn space is fixed at creation, and so is the container map: a
   volume with every vvbn mapped holds exactly one entry per vvbn. *)
let test_volume_container_sized () =
  let space = 557_056 in
  let v = Volume.create ~id:0 ~vvbn_space:space in
  Alcotest.(check int) "sized at creation" space (Volume.container_capacity v);
  for vvbn = 0 to space - 1 do
    ignore (Volume.map_vvbn v ~vvbn ~pvbn:vvbn)
  done;
  Alcotest.(check int) "every vvbn mapped" (space - 1) (Volume.pvbn_of_vvbn v (space - 1));
  Alcotest.(check int) "no growth" space (Volume.container_capacity v)

let test_volume_inode_chunks () =
  let v = Volume.create ~id:0 ~vvbn_space:1000 in
  for _ = 1 to 70 do
    let f = File.create ~vol:0 ~id:(Volume.fresh_file_id v) in
    Volume.add_file v f
  done;
  Alcotest.(check (list int)) "two inode chunks dirty" [ 0; 1 ] (Volume.dirty_inode_chunks v);
  Alcotest.(check int) "chunk 0 holds 64" 64 (List.length (Volume.inode_chunk v 0));
  Alcotest.(check int) "chunk 1 holds 6" 6 (List.length (Volume.inode_chunk v 1))

let test_volume_vol_rec_roundtrip () =
  let v = Volume.create ~id:9 ~vvbn_space:70_000 in
  ignore (Volume.set_inode_location v 0 101);
  ignore (Volume.set_container_location v 2 202);
  ignore (Bitmap_file.set_location (Volume.vol_map v) 1 303);
  let r = Volume.to_vol_rec v in
  let v2 = Volume.of_vol_rec r in
  Alcotest.(check int) "id" 9 (Volume.id v2);
  Alcotest.(check int) "vvbn space" 70_000 (Volume.vvbn_space v2);
  Alcotest.(check int) "inode loc" 101 (Volume.inode_location v2 0);
  Alcotest.(check int) "container loc" 202 (Volume.container_location v2 2);
  Alcotest.(check int) "volmap loc" 303 (Bitmap_file.location (Volume.vol_map v2) 1)

let test_volume_recent_frees () =
  let v = Volume.create ~id:0 ~vvbn_space:1000 in
  Alcotest.(check bool) "reusable initially" true (Volume.vvbn_reusable v 5);
  Volume.note_freed_vvbn v 5;
  Alcotest.(check bool) "frozen" false (Volume.vvbn_reusable v 5);
  Volume.clear_recent_frees v;
  Alcotest.(check bool) "thawed" true (Volume.vvbn_reusable v 5)

(* --- Nvlog --- *)

let wop i = Nvlog.Write { vol = 0; file = 0; fbn = i; content = Int64.of_int i }

let test_nvlog_halves () =
  let log = Nvlog.create ~half_capacity:4 () in
  for i = 0 to 2 do
    Alcotest.(check bool) "ok" true (Nvlog.append log (wop i) = `Ok)
  done;
  Alcotest.(check bool) "fourth trips half-full" true (Nvlog.append log (wop 3) = `Half_full);
  Alcotest.(check bool) "half full flag" true (Nvlog.is_half_full log);
  Nvlog.cp_begin log;
  Alcotest.(check int) "cp half" 4 (Nvlog.in_cp log);
  Alcotest.(check int) "filling reset" 0 (Nvlog.pending log);
  ignore (Nvlog.append log (wop 4));
  Nvlog.cp_commit log;
  Alcotest.(check int) "cp dropped" 0 (Nvlog.in_cp log);
  Alcotest.(check int) "tail survives" 1 (Nvlog.pending log)

let test_nvlog_exhaustion () =
  let log = Nvlog.create ~half_capacity:8 () in
  for i = 0 to 14 do
    ignore (Nvlog.append log (wop i))
  done;
  (* nearly_full leaves headroom (capacity/8) before the hard limit. *)
  Alcotest.(check bool) "nearly full before hard limit" true (Nvlog.is_nearly_full log);
  ignore (Nvlog.append log (wop 15));
  Alcotest.(check bool) "exhausted at capacity" true (Nvlog.is_exhausted log);
  Alcotest.check_raises "NVRAM exhausted" Nvlog.Exhausted (fun () ->
      ignore (Nvlog.append log (wop 16)));
  (* The refused op is not logged: pending is unchanged and the log still
     replays cleanly. *)
  Alcotest.(check int) "refused op not logged" 16 (Nvlog.pending log)

let test_nvlog_replay_order () =
  let log = Nvlog.create ~half_capacity:10 () in
  for i = 0 to 4 do
    ignore (Nvlog.append log (wop i))
  done;
  Nvlog.cp_begin log;
  for i = 5 to 7 do
    ignore (Nvlog.append log (wop i))
  done;
  let fbns =
    List.map (function Nvlog.Write { fbn; _ } -> fbn | _ -> -1) (Nvlog.replay_ops log)
  in
  Alcotest.(check (list int)) "cp half first, in order" [ 0; 1; 2; 3; 4; 5; 6; 7 ] fbns

let test_nvlog_recover_reset () =
  let log = Nvlog.create ~half_capacity:10 () in
  ignore (Nvlog.append log (wop 0));
  Nvlog.cp_begin log;
  ignore (Nvlog.append log (wop 1));
  Nvlog.recover_reset log;
  Alcotest.(check int) "both halves merged" 2 (Nvlog.pending log);
  Alcotest.(check int) "no cp half" 0 (Nvlog.in_cp log);
  (* cp_begin is legal again after recovery. *)
  Nvlog.cp_begin log;
  Alcotest.(check int) "all covered" 2 (Nvlog.in_cp log)

let fbns_of ops = List.map (function Nvlog.Write { fbn; _ } -> fbn | _ -> -1) ops

let test_nvlog_tear_clamps () =
  let log = Nvlog.create ~half_capacity:10 () in
  for i = 0 to 2 do
    ignore (Nvlog.append log (wop i))
  done;
  let torn_ops = Nvlog.tear log ~records:10 in
  Alcotest.(check (list int)) "clamped to live length, oldest first" [ 0; 1; 2 ] (fbns_of torn_ops);
  Alcotest.(check int) "all three torn" 3 (Nvlog.torn log);
  Alcotest.(check (list int)) "second tear finds nothing" [] (fbns_of (Nvlog.tear log ~records:1))

let test_nvlog_replay_stops_at_torn () =
  let log = Nvlog.create ~half_capacity:10 () in
  for i = 0 to 3 do
    ignore (Nvlog.append log (wop i))
  done;
  Nvlog.cp_begin log;
  for i = 4 to 8 do
    ignore (Nvlog.append log (wop i))
  done;
  let torn_ops = Nvlog.tear log ~records:2 in
  Alcotest.(check (list int)) "newest two torn, oldest first" [ 7; 8 ] (fbns_of torn_ops);
  Alcotest.(check (list int)) "cp half, then filling up to first torn" [ 0; 1; 2; 3; 4; 5; 6 ]
    (fbns_of (Nvlog.replay_ops log))

let test_nvlog_recover_reset_discards_torn () =
  let log = Nvlog.create ~half_capacity:10 () in
  for i = 0 to 2 do
    ignore (Nvlog.append log (wop i))
  done;
  (* The CP covering ops 0-2 never commits before the crash, so those
     operations are live again after recovery. *)
  Nvlog.cp_begin log;
  for i = 3 to 6 do
    ignore (Nvlog.append log (wop i))
  done;
  ignore (Nvlog.tear log ~records:1);
  Nvlog.recover_reset log;
  Alcotest.(check int) "torn record discarded" 0 (Nvlog.torn log);
  Alcotest.(check int) "cp half merged, torn dropped" 6 (Nvlog.pending log);
  Alcotest.(check int) "no cp half" 0 (Nvlog.in_cp log);
  Nvlog.cp_begin log;
  Alcotest.(check (list int)) "surviving order preserved" [ 0; 1; 2; 3; 4; 5 ]
    (fbns_of (Nvlog.replay_ops log))

(* A second tear reaches the records just older than the first one's. *)
let test_nvlog_second_tear () =
  let log = Nvlog.create ~half_capacity:32 () in
  for i = 1 to 20 do
    ignore (Nvlog.append log (wop i))
  done;
  let range lo hi = List.init (hi - lo + 1) (fun i -> lo + i) in
  Alcotest.(check (list int)) "first tear" (range 11 20) (fbns_of (Nvlog.tear log ~records:10));
  Alcotest.(check (list int)) "second tear" (range 6 10) (fbns_of (Nvlog.tear log ~records:5));
  Alcotest.(check int) "fifteen torn" 15 (Nvlog.torn log);
  Alcotest.(check (list int)) "replay stops at the older tear" (range 1 5)
    (fbns_of (Nvlog.replay_ops log))

(* The ring against a list model: the CP half and the filling half as
   oldest-first op lists, and the count of torn records.  A torn log
   takes only more tears, replays and recovery, as after a crash. *)
type log_step = Log of Nvlog.op | Cp_begin | Cp_commit | Tear of int | Replay | Recover

let log_step_gen =
  let open QCheck.Gen in
  let vol = int_range (-2) 300 and word = map Int64.of_int int in
  frequency
    [
      (2, map2 (fun vol vvbn_space -> Log (Nvlog.Create_vol { vol; vvbn_space })) vol nat);
      (2, map2 (fun vol file -> Log (Nvlog.Create_file { vol; file })) vol nat);
      ( 20,
        map
          (fun (vol, file, fbn, content) -> Log (Nvlog.Write { vol; file; fbn; content }))
          (quad vol nat nat word) );
      (2, map2 (fun vol file -> Log (Nvlog.Delete_file { vol; file })) vol nat);
      (2, return Cp_begin);
      (2, return Cp_commit);
      (1, map (fun k -> Tear k) (int_bound 12));
      (2, return Replay);
      (1, return Recover);
    ]

let prop_nvlog_ring =
  let print = function
    | Log (Nvlog.Write { fbn; _ }) -> Printf.sprintf "write %d" fbn
    | Log _ -> "log"
    | Cp_begin -> "cp_begin"
    | Cp_commit -> "cp_commit"
    | Tear k -> Printf.sprintf "tear %d" k
    | Replay -> "replay"
    | Recover -> "recover"
  in
  QCheck.Test.make ~name:"nvlog ring matches a list model" ~count:300
    (QCheck.make
       ~print:(fun (half, steps) -> Printf.sprintf "half %d: %s" half (QCheck.Print.list print steps))
       QCheck.Gen.(pair (int_range 1 80) (list_size (0 -- 600) log_step_gen)))
    (fun (half, steps) ->
      let log = Nvlog.create ~half_capacity:half () in
      let cp = ref [] and filling = ref [] and cp_active = ref false and torn = ref 0 in
      let readable () =
        let all = !cp @ !filling in
        List.filteri (fun i _ -> i < List.length all - !torn) all
      in
      let agrees () =
        let pending = List.length !filling and in_cp = List.length !cp in
        Nvlog.pending log = pending
        && Nvlog.in_cp log = in_cp
        && Nvlog.total_pending log = pending + in_cp
        && Nvlog.torn log = !torn
        && Nvlog.is_half_full log = (pending >= half)
        && Nvlog.is_exhausted log = (pending >= 2 * half)
      in
      List.for_all
        (fun step ->
          (match step with
          | Log op when !torn = 0 -> (
              match Nvlog.append log op with
              | r ->
                  filling := !filling @ [ op ];
                  r = if List.length !filling >= half then `Half_full else `Ok
              | exception Nvlog.Exhausted -> List.length !filling >= 2 * half)
          | Cp_begin when !torn = 0 && not !cp_active ->
              Nvlog.cp_begin log;
              cp := !filling;
              filling := [];
              cp_active := true;
              true
          | Cp_commit when !torn = 0 && !cp_active ->
              Nvlog.cp_commit log;
              cp := [];
              cp_active := false;
              true
          | Tear k ->
              let live = readable () in
              let k = min k (List.length !filling - !torn) in
              let want = List.filteri (fun i _ -> i >= List.length live - k) live in
              torn := !torn + k;
              Nvlog.tear log ~records:k = want
          | Replay -> Nvlog.replay_ops log = readable ()
          | Recover ->
              filling := readable ();
              cp := [];
              cp_active := false;
              torn := 0;
              Nvlog.recover_reset log;
              true
          | Log _ | Cp_begin | Cp_commit -> true)
          && agrees ())
        steps
      && Nvlog.replay_ops log = readable ())

(* --- Counters --- *)

let test_counters_loose_accounting () =
  let c = Counters.create () in
  Counters.set c "free" 100;
  let t1 = Counters.token c and t2 = Counters.token c in
  Counters.stage t1 "free" (-10);
  Counters.stage t2 "free" (-5);
  Counters.stage t1 "cleaned" 3;
  (* Loose reads lag. *)
  Alcotest.(check int) "loose value" 100 (Counters.read c "free");
  (* Exact reads fold in tokens. *)
  Alcotest.(check int) "exact value" 85 (Counters.exact c [ t1; t2 ] "free");
  let updates = Counters.flush c t1 in
  Alcotest.(check int) "two counters flushed" 2 updates;
  Alcotest.(check int) "after flush" 90 (Counters.read c "free");
  Alcotest.(check int) "token emptied" 0 (Counters.staged t1 "free");
  ignore (Counters.flush c t2);
  Alcotest.(check int) "all applied" 85 (Counters.read c "free")

let prop_counters_flush_order_irrelevant =
  QCheck.Test.make ~name:"token flush order does not matter" ~count:100
    QCheck.(list_of_size Gen.(1 -- 20) (pair (int_bound 3) (int_range (-50) 50)))
    (fun deltas ->
      let apply order =
        let c = Counters.create () in
        let toks = Array.init 4 (fun _ -> Counters.token c) in
        List.iter (fun (i, d) -> Counters.stage toks.(i) (Printf.sprintf "k%d" (i mod 2)) d) deltas;
        List.iter (fun i -> ignore (Counters.flush c toks.(i))) order;
        (Counters.read c "k0", Counters.read c "k1")
      in
      apply [ 0; 1; 2; 3 ] = apply [ 3; 2; 1; 0 ])

(* --- Buffer_cache --- *)

let test_cache_probe_insert () =
  let c = Buffer_cache.create ~capacity:3 in
  Alcotest.(check bool) "first probe misses" false (Buffer_cache.probe c 10);
  Alcotest.(check bool) "second probe hits" true (Buffer_cache.probe c 10);
  Alcotest.(check int) "one hit" 1 (Buffer_cache.hits c);
  Alcotest.(check int) "one miss" 1 (Buffer_cache.misses c);
  Alcotest.(check int) "one resident" 1 (Buffer_cache.length c)

let test_cache_lru_eviction () =
  let c = Buffer_cache.create ~capacity:3 in
  List.iter (fun b -> ignore (Buffer_cache.probe c b)) [ 1; 2; 3 ];
  (* Refresh 1 so that 2 is the LRU, then insert 4. *)
  ignore (Buffer_cache.probe c 1);
  ignore (Buffer_cache.probe c 4);
  Alcotest.(check bool) "LRU (2) evicted" false (Buffer_cache.contains c 2);
  Alcotest.(check bool) "refreshed (1) kept" true (Buffer_cache.contains c 1);
  Alcotest.(check bool) "3 kept" true (Buffer_cache.contains c 3);
  Alcotest.(check bool) "4 inserted" true (Buffer_cache.contains c 4);
  Alcotest.(check int) "one eviction" 1 (Buffer_cache.evictions c);
  Alcotest.(check int) "at capacity" 3 (Buffer_cache.length c)

let test_cache_invalidate () =
  let c = Buffer_cache.create ~capacity:4 in
  ignore (Buffer_cache.probe c 7);
  Buffer_cache.invalidate c 7;
  Alcotest.(check bool) "gone" false (Buffer_cache.contains c 7);
  Buffer_cache.invalidate c 7;
  (* idempotent *)
  Alcotest.(check int) "empty" 0 (Buffer_cache.length c)

let test_cache_hit_rate () =
  let c = Buffer_cache.create ~capacity:8 in
  for _ = 1 to 3 do
    ignore (Buffer_cache.probe c 1)
  done;
  (* 1 miss then 2 hits. *)
  Alcotest.(check (float 1e-9)) "hit rate" (2.0 /. 3.0) (Buffer_cache.hit_rate c)

let prop_cache_never_exceeds_capacity =
  QCheck.Test.make ~name:"cache never exceeds capacity and keeps MRU entries" ~count:200
    QCheck.(pair (int_range 1 16) (list_of_size Gen.(1 -- 200) (int_bound 50)))
    (fun (cap, probes) ->
      let c = Buffer_cache.create ~capacity:cap in
      List.iter (fun b -> ignore (Buffer_cache.probe c b)) probes;
      Buffer_cache.length c <= cap
      &&
      (* The most recent probe is always resident. *)
      match List.rev probes with [] -> true | last :: _ -> Buffer_cache.contains c last)

(* --- Aggregate-level allocation state --- *)

let small_geom () =
  Wafl_storage.Geometry.create ~drive_blocks:4096 ~aa_stripes:512 ~raid_groups:[ (3, 1) ] ()

let make_agg () =
  let eng = Wafl_sim.Engine.create ~cores:2 () in
  Aggregate.create eng ~cost:Wafl_sim.Cost.default ~geometry:(small_geom ()) ()

(* --- 32-bit entries --- *)

(* A full block-map image keeps its 512 entries in 2 KiB of host bytes
   (the modelled block stays 4 KiB), all in its slab: on the heap it is
   one small custom block. *)
let test_bmap_image_bytes () =
  let f = File.create ~vol:0 ~id:0 in
  for fbn = 0 to Layout.entries_per_bmap_block - 1 do
    ignore (File.set_vvbn f ~fbn ~vvbn:((1 lsl 31) - 1 - fbn))
  done;
  let img = File.bmap_entries f 0 in
  Alcotest.(check int) "full block" Layout.entries_per_bmap_block (Wafl_util.Packed.length img);
  Alcotest.(check int) "widest vvbn kept" ((1 lsl 31) - 1) (Wafl_util.Packed.get img 0);
  Alcotest.(check int) "2 KiB of slab" 2048 (Wafl_util.Packed.bytes img);
  let words = Obj.reachable_words (Obj.repr img) in
  if words > 8 then Alcotest.failf "block-map image costs %d heap words" words

(* A volume's container map costs 4 bytes per vvbn: a whole volume
   holds no more than that beyond its activemap and frozen-vvbn bitmaps
   (1 bit per vvbn each) and a fixed allowance for its other tables.
   The per-vvbn bytes are slab; the heap holds only the fixed part. *)
let test_volume_container_bytes () =
  let space = 1 lsl 20 in
  let v = Volume.create ~id:0 ~vvbn_space:space in
  let slab = Volume.slab_bytes v and heap = 8 * Obj.reachable_words (Obj.repr v) in
  if slab < 4 * space then Alcotest.failf "container map of %d vvbns in %d slab bytes" space slab;
  let bound = (4 * space) + (space / 4) + 65536 in
  if slab + heap > bound then
    Alcotest.failf "volume of %d vvbns holds %d slab and %d heap bytes (bound %d)" space slab heap
      bound;
  if heap > 65536 then Alcotest.failf "volume of %d vvbns holds %d heap bytes" space heap

let test_wide_sizes_rejected () =
  Alcotest.check_raises "cache capacity"
    (Invalid_argument "Buffer_cache.create: capacity must be below 2^31") (fun () ->
      ignore (Buffer_cache.create ~capacity:(1 lsl 31)));
  let c = Buffer_cache.create ~capacity:4 in
  Alcotest.check_raises "cache pvbn"
    (Invalid_argument "Buffer_cache.probe: pvbn must be below 2^31") (fun () ->
      ignore (Buffer_cache.probe c (1 lsl 31)));
  Alcotest.(check bool) "widest pvbn cached" false (Buffer_cache.probe c ((1 lsl 31) - 1));
  Alcotest.(check bool) "and found" true (Buffer_cache.contains c ((1 lsl 31) - 1));
  let agg = make_agg () in
  Alcotest.check_raises "vvbn space"
    (Invalid_argument "Aggregate.create_volume: vvbn_space must be below 2^31") (fun () ->
      ignore (Aggregate.create_volume agg ~vvbn_space:(1 lsl 31)));
  Alcotest.(check int) "no volume made" 0 (List.length (Aggregate.volumes agg))

let test_aggregate_aa_accounting () =
  let agg = make_agg () in
  Alcotest.(check int) "aa 0 initially full" (512 * 3) (Aggregate.aa_free agg ~rg:0 ~aa:0);
  Aggregate.commit_alloc_pvbn agg 0;
  Aggregate.commit_alloc_pvbn agg 1;
  Alcotest.(check int) "aa 0 minus two" ((512 * 3) - 2) (Aggregate.aa_free agg ~rg:0 ~aa:0);
  Aggregate.commit_free_pvbn agg 0;
  Alcotest.(check int) "freed back" ((512 * 3) - 1) (Aggregate.aa_free agg ~rg:0 ~aa:0);
  Alcotest.(check bool) "frozen until CP end" false (Aggregate.pvbn_allocatable agg 0);
  Alcotest.(check bool) "untouched block fine" true (Aggregate.pvbn_allocatable agg 5)

let test_aggregate_select_aa () =
  let agg = make_agg () in
  (* Drain AA 0 a bit; AA 1..7 tie at max, selection must avoid excluded. *)
  Aggregate.commit_alloc_pvbn agg 0;
  (match Aggregate.select_aa agg ~rg:0 ~exclude:[] with
  | Some aa -> Alcotest.(check bool) "not the drained AA" true (aa <> 0)
  | None -> Alcotest.fail "no AA selected");
  match Aggregate.select_aa agg ~rg:0 ~exclude:[ 1; 2; 3; 4; 5; 6; 7 ] with
  | Some aa -> Alcotest.(check int) "falls back to AA 0" 0 aa
  | None -> Alcotest.fail "exclusion removed everything"

let test_aggregate_free_counter_tracks () =
  let agg = make_agg () in
  let free0 = Counters.read (Aggregate.counters agg) "agg_free_blocks" in
  Aggregate.commit_alloc_pvbn agg 100;
  Aggregate.commit_alloc_pvbn agg 101;
  Aggregate.commit_free_pvbn agg 100;
  Alcotest.(check int) "counter tracks" (free0 - 1)
    (Counters.read (Aggregate.counters agg) "agg_free_blocks")

(* --- Block-image lifetime ---

   A CP that frees a block keeps its disk image until the superblock
   that stops referencing it is published; after that the image is gone
   unless a snapshot holds the block.  Scenario: fbns 0..7 written and
   snapshotted, fbns 8..15 written after the snapshot, then fbn 0 (held)
   and fbn 8 (not held) overwritten by a third CP that the test pauses
   between its last free and its publish. *)

let content ~gen ~fbn = Int64.of_int ((gen * 1000) + fbn)

let paused_freeing_cp () =
  let eng = Wafl_sim.Engine.create ~cores:8 () in
  let agg =
    Aggregate.create eng ~cost:Wafl_sim.Cost.default ~geometry:(small_geom ()) ~nvlog_half:4096 ()
  in
  let walloc = Wafl_core.Walloc.create agg Wafl_core.Walloc.default_config in
  let cp = Wafl_core.Walloc.cp walloc in
  let setup = ref None in
  ignore
    (Wafl_sim.Engine.spawn eng ~label:"setup" (fun () ->
         let vol = Aggregate.create_volume agg ~vvbn_space:65536 in
         Wafl_core.Walloc.register_volume walloc vol;
         let f = Aggregate.create_file agg ~vol:(Volume.id vol) in
         let write ~gen lo hi =
           for fbn = lo to hi do
             ignore
               (Aggregate.write agg ~vol:(Volume.id vol) ~file:(File.id f) ~fbn
                  ~content:(content ~gen ~fbn))
           done
         in
         write ~gen:0 0 7;
         Wafl_core.Cp.run_now cp;
         let snap = Aggregate.create_snapshot agg ~name:"s" in
         write ~gen:1 8 15;
         Wafl_core.Cp.run_now cp;
         let pvbn fbn = Volume.pvbn_of_vvbn vol (File.vvbn_of_fbn f fbn) in
         setup := Some (vol, f, snap, pvbn 0, pvbn 8, File.bmap_location f 0);
         write ~gen:2 0 0;
         write ~gen:2 8 8;
         Wafl_core.Cp.run_now cp));
  (* Step until the third CP reaches its last phase: every free is done,
     the publish is still pending. *)
  while !setup = None || Wafl_core.Cp.phase cp <> "repair" do
    Wafl_sim.Engine.run ~until:(Wafl_sim.Engine.now eng +. 1.0) eng
  done;
  let vol, f, snap, held_pvbn, old_pvbn, old_bmap = Option.get !setup in
  (eng, agg, vol, f, snap, held_pvbn, old_pvbn, old_bmap)

let test_image_lifetime () =
  let eng, agg, vol, f, snap, held_pvbn, old_pvbn, old_bmap = paused_freeing_cp () in
  let gen0 = Aggregate.generation agg in
  let holds_fbn pvbn fbn =
    match Aggregate.read_pvbn agg pvbn with
    | Some (Layout.Data d) -> d.fbn = fbn
    | _ -> false
  in
  Alcotest.(check bool) "old image present before publish" true (holds_fbn old_pvbn 8);
  Alcotest.(check bool) "old pvbn frozen before publish" false
    (Aggregate.pvbn_allocatable agg old_pvbn);
  Alcotest.(check bool) "old bmap image present before publish" true
    (Aggregate.read_pvbn agg old_bmap <> None);
  Wafl_sim.Engine.run eng;
  Alcotest.(check int) "published" (gen0 + 1) (Aggregate.generation agg);
  Alcotest.(check bool) "freed image discarded" true (Aggregate.read_pvbn agg old_pvbn = None);
  Alcotest.(check bool) "freed bmap image discarded" true
    (Aggregate.read_pvbn agg old_bmap = None);
  Alcotest.(check bool) "snapshot-held image kept" true (holds_fbn held_pvbn 0);
  Alcotest.(check (option int64)) "snapshot reads old content"
    (Some (content ~gen:0 ~fbn:0))
    (Aggregate.read_snapshot agg snap ~vol:(Volume.id vol) ~file:(File.id f) ~fbn:0);
  Alcotest.(check (option int64)) "active reads new content"
    (Some (content ~gen:2 ~fbn:8))
    (Aggregate.read agg ~vol:(Volume.id vol) ~file:(File.id f) ~fbn:8)

let test_crash_in_freeing_cp () =
  let _, agg, vol, f, _, _, _, _ = paused_freeing_cp () in
  let agg2 =
    Aggregate.recover (Wafl_sim.Engine.create ~cores:8 ()) ~cost:Wafl_sim.Cost.default
      (Aggregate.crash agg)
  in
  for fbn = 0 to 15 do
    let gen = if fbn = 0 || fbn = 8 then 2 else if fbn < 8 then 0 else 1 in
    Alcotest.(check (option int64))
      (Printf.sprintf "fbn %d" fbn)
      (Some (content ~gen ~fbn))
      (Aggregate.read agg2 ~vol:(Volume.id vol) ~file:(File.id f) ~fbn)
  done;
  Aggregate.fsck agg2

(* Recycled image buffers: every publish hands the packed images it
   discards to the aggregate's spare pool and later CPs refill them.
   After a snapshot and four overwrite CPs, a buffer that held an image
   after the first overwrite must be back on disk under another pvbn
   (the pool was really used), no two present images may share a
   buffer, and the snapshot, the active tree and a recovery from a crash
   (with the last generation still only in the NVRAM log) must all read
   the right generation. *)

(* Every packed image on disk, entry and word images alike, as the
   buffer the tests compare by identity. *)
let packed_images agg =
  let disk = Aggregate.disk agg in
  let acc = ref [] in
  for pvbn = Wafl_storage.Geometry.total_data_blocks (small_geom ()) - 1 downto 0 do
    match Wafl_storage.Disk.read disk pvbn with
    | Some (Layout.Bmap { entries = img; _ } | Layout.Container { entries = img; _ }) ->
        acc := (pvbn, Obj.repr img) :: !acc
    | Some (Layout.Vol_map { words = img; _ } | Layout.Agg_map { words = img; _ }) ->
        acc := (pvbn, Obj.repr img) :: !acc
    | _ -> ()
  done;
  !acc

let test_spares_never_alias () =
  let eng = Wafl_sim.Engine.create ~cores:8 () in
  let agg =
    Aggregate.create eng ~cost:Wafl_sim.Cost.default ~geometry:(small_geom ()) ~nvlog_half:4096 ()
  in
  let walloc = Wafl_core.Walloc.create agg Wafl_core.Walloc.default_config in
  let cp = Wafl_core.Walloc.cp walloc in
  let nfbns = 1024 and overwrites = 4 in
  let logged = overwrites + 1 in
  let latest fbn = if fbn < nfbns / 2 then logged else overwrites in
  let result = ref None in
  ignore
    (Wafl_sim.Engine.spawn eng ~label:"setup" (fun () ->
         let vol = Aggregate.create_volume agg ~vvbn_space:65536 in
         Wafl_core.Walloc.register_volume walloc vol;
         let f = Aggregate.create_file agg ~vol:(Volume.id vol) in
         let write ~gen n =
           for fbn = 0 to n - 1 do
             ignore
               (Aggregate.write agg ~vol:(Volume.id vol) ~file:(File.id f) ~fbn
                  ~content:(content ~gen ~fbn))
           done
         in
         let write_gen gen =
           write ~gen nfbns;
           Wafl_core.Cp.run_now cp
         in
         write_gen 0;
         let snap = Aggregate.create_snapshot agg ~name:"before" in
         write_gen 1;
         let after_first = packed_images agg in
         for gen = 2 to overwrites do
           write_gen gen
         done;
         write ~gen:logged (nfbns / 2);
         result := Some (vol, f, snap, after_first)));
  Wafl_sim.Engine.run eng;
  let vol, f, snap, after_first = Option.get !result in
  let now = packed_images agg in
  let reused =
    List.exists
      (fun (pvbn, img) -> List.exists (fun (p0, i0) -> i0 == img && p0 <> pvbn) after_first)
      now
  in
  Alcotest.(check bool) "a discarded buffer was refilled" true reused;
  List.iteri
    (fun i (p, img) ->
      List.iteri
        (fun j (q, img') ->
          if j > i && img == img' then Alcotest.failf "pvbns %d and %d share an image buffer" p q)
        now)
    now;
  Aggregate.fsck agg;
  let vid = Volume.id vol and fid = File.id f in
  for fbn = 0 to nfbns - 1 do
    if Aggregate.read_snapshot agg snap ~vol:vid ~file:fid ~fbn <> Some (content ~gen:0 ~fbn)
    then Alcotest.failf "snapshot fbn %d lost its gen-0 content" fbn;
    if Aggregate.read agg ~vol:vid ~file:fid ~fbn <> Some (content ~gen:(latest fbn) ~fbn) then
      Alcotest.failf "active fbn %d lost its last write" fbn
  done;
  let agg2 =
    Aggregate.recover (Wafl_sim.Engine.create ~cores:8 ()) ~cost:Wafl_sim.Cost.default
      (Aggregate.crash agg)
  in
  for fbn = 0 to nfbns - 1 do
    if Aggregate.read agg2 ~vol:vid ~file:fid ~fbn <> Some (content ~gen:(latest fbn) ~fbn) then
      Alcotest.failf "recovered fbn %d lost an acked write" fbn
  done;
  Aggregate.fsck agg2

(* Deleting a snapshot releases the blocks only it still held, and with
   them their images.  The published superblock lists the snapshot until
   the next CP publishes, so until then the images stay (a crash recovers
   the snapshot intact); that publish drops them like its own frees, and
   the snapshot's block-map buffer goes to the spare pool, which the CP
   after it refills.  Scenario: fbns 0..7 written, snapshotted and then
   overwritten, so every block of the first CP is held by the snapshot
   alone. *)
let test_delete_snapshot_drops_images () =
  let eng = Wafl_sim.Engine.create ~cores:8 () in
  let agg =
    Aggregate.create eng ~cost:Wafl_sim.Cost.default ~geometry:(small_geom ()) ~nvlog_half:4096 ()
  in
  let walloc = Wafl_core.Walloc.create agg Wafl_core.Walloc.default_config in
  let cp = Wafl_core.Walloc.cp walloc in
  let steps = ref [] in
  let step what ok = steps := (what, ok) :: !steps in
  ignore
    (Wafl_sim.Engine.spawn eng ~label:"setup" (fun () ->
         let vol = Aggregate.create_volume agg ~vvbn_space:65536 in
         Wafl_core.Walloc.register_volume walloc vol;
         let vid = Volume.id vol in
         let f = Aggregate.create_file agg ~vol:vid in
         let fid = File.id f in
         let write_gen ?(bmaps = 1) gen =
           List.iter
             (fun fbn ->
               ignore (Aggregate.write agg ~vol:vid ~file:fid ~fbn ~content:(content ~gen ~fbn)))
             (List.init 8 Fun.id
             @ List.init (bmaps - 1) (fun i -> (i + 1) * Layout.entries_per_bmap_block));
           Wafl_core.Cp.run_now cp
         in
         write_gen 0;
         let snap = Aggregate.create_snapshot agg ~name:"s" in
         let data_pvbn = Volume.pvbn_of_vvbn vol (File.vvbn_of_fbn f 0) in
         let bmap_pvbn = File.bmap_location f 0 in
         let bmap_img () =
           match Wafl_storage.Disk.read (Aggregate.disk agg) bmap_pvbn with
           | Some (Layout.Bmap { entries; _ }) -> Some entries
           | _ -> None
         in
         write_gen 1;
         let img = bmap_img () in
         Aggregate.delete_snapshot agg snap;
         step "held data image kept until the next publish"
           (Aggregate.read_pvbn agg data_pvbn <> None);
         step "held bmap image kept until the next publish" (img <> None && bmap_img () = img);
         step "released block frozen until the next publish"
           (not (Aggregate.pvbn_allocatable agg data_pvbn));
         let agg2 =
           Aggregate.recover (Wafl_sim.Engine.create ~cores:8 ()) ~cost:Wafl_sim.Cost.default
             (Aggregate.crash agg)
         in
         step "a crash before that publish recovers the snapshot"
           (match Aggregate.find_snapshot agg2 "s" with
           | Some s2 ->
               Aggregate.read_snapshot agg2 s2 ~vol:vid ~file:fid ~fbn:0
               = Some (content ~gen:0 ~fbn:0)
           | None -> false);
         Aggregate.fsck agg2;
         write_gen 2;
         step "released data image discarded at the publish"
           (Aggregate.read_pvbn agg data_pvbn = None);
         step "released bmap image discarded at the publish" (bmap_img () = None);
         (* The pool hands out its newest buffers first, and the last
            publish also recycled its own frees: dirty enough block-map
            blocks to draw every buffer it holds. *)
         write_gen ~bmaps:16 3;
         step "released bmap buffer refilled by a later CP"
           (List.exists
              (fun (_, live) -> match img with Some old -> live == Obj.repr old | None -> false)
              (packed_images agg))));
  Wafl_sim.Engine.run eng;
  Alcotest.(check int) "every step ran" 7 (List.length !steps);
  List.iter (fun (what, ok) -> Alcotest.(check bool) what true ok) (List.rev !steps);
  Aggregate.fsck agg

(* The spare pool holds at most one publish's images: each publish drops
   the spares the CP before it left undrawn before recycling its own
   discards.  A snapshot holding sixteen block-map blocks alone is
   deleted; its publish hands all sixteen buffers to the pool, and the
   CPs after it dirty one block-map block each.  Once two later CPs have
   published, every such buffer is either refilled (a live image on
   disk) or unreachable.  The disk keeps its first boxed image for good
   (as the fill of vacated entries), so the snapshot is taken after the
   file's first overwrite. *)

(* Kept out of line so only the store holds the images when the test
   collects. *)
let[@inline never] weak_images disk pvbns =
  let w = Weak.create (List.length pvbns) in
  List.iteri
    (fun i pvbn ->
      match Wafl_storage.Disk.read disk pvbn with
      | Some (Layout.Bmap { entries; _ }) -> Weak.set w i (Some entries)
      | _ -> Alcotest.failf "pvbn %d holds no block-map image" pvbn)
    pvbns;
  w

let test_spare_pool_bounded () =
  let eng = Wafl_sim.Engine.create ~cores:8 () in
  let agg =
    Aggregate.create eng ~cost:Wafl_sim.Cost.default ~geometry:(small_geom ()) ~nvlog_half:4096 ()
  in
  let walloc = Wafl_core.Walloc.create agg Wafl_core.Walloc.default_config in
  let cp = Wafl_core.Walloc.cp walloc in
  let bmaps = 16 in
  let held = ref None in
  ignore
    (Wafl_sim.Engine.spawn eng ~label:"setup" (fun () ->
         let vol = Aggregate.create_volume agg ~vvbn_space:65536 in
         Wafl_core.Walloc.register_volume walloc vol;
         let vid = Volume.id vol in
         let f = Aggregate.create_file agg ~vol:vid in
         let write_gen n gen =
           for i = 0 to n - 1 do
             let fbn = i * Layout.entries_per_bmap_block in
             ignore
               (Aggregate.write agg ~vol:vid ~file:(File.id f) ~fbn ~content:(content ~gen ~fbn))
           done;
           Wafl_core.Cp.run_now cp
         in
         write_gen bmaps 0;
         write_gen bmaps 1;
         let snap = Aggregate.create_snapshot agg ~name:"s" in
         let pvbns = List.init bmaps (File.bmap_location f) in
         write_gen bmaps 2;
         let w = weak_images (Aggregate.disk agg) pvbns in
         Aggregate.delete_snapshot agg snap;
         write_gen 1 3;
         write_gen 1 4;
         held := Some w));
  Wafl_sim.Engine.run eng;
  let w = Option.get !held in
  Gc.full_major ();
  let live = packed_images agg in
  let parked = ref 0 in
  for i = 0 to Weak.length w - 1 do
    match Weak.get w i with
    | Some img when not (List.exists (fun (_, l) -> l == Obj.repr img) live) -> incr parked
    | _ -> ()
  done;
  Alcotest.(check int) "deleted snapshot buffers parked in the pool" 0 !parked;
  Aggregate.fsck agg

(* Weak references to the block-map image records at [pvbns]. *)
let[@inline never] weak_records disk pvbns =
  let w = Weak.create (List.length pvbns) in
  List.iteri
    (fun i pvbn ->
      match Wafl_storage.Disk.read disk pvbn with
      | Some (Layout.Bmap _ as img) -> Weak.set w i (Some img)
      | _ -> Alcotest.failf "pvbn %d holds no block-map image" pvbn)
    pvbns;
  w

(* A snapshot taken at the file's first CP, then deleted: once the
   publish discards its block-map images, nothing keeps one reachable,
   not even the disk's vacated vector entries (the spare pool keeps only
   their buffers). *)
(* A completed I/O's batch goes back to its group's pool keeping no
   payload: once the store drops a metafile image the I/O carried,
   nothing holds it, with the data codec's vacant image as the batch's
   fill and without a codec alike.  Kept out of line so no register of
   the test holds the image. *)
let[@inline never] submit_metafile raid vbn =
  let img = Layout.Inode_chunk { vol = 0; index = vbn; inodes = [] } in
  let w = Weak.create 1 in
  Weak.set w 0 (Some img);
  let b = Wafl_storage.Raid.batch raid in
  Wafl_storage.Raid.add b (vbn + 1) (Layout.Data { vol = 0; file = 1; fbn = 2; content = 3L });
  Wafl_storage.Raid.add b vbn img;
  Wafl_storage.Raid.submit_batch raid b ~on_complete:ignore;
  w

let test_batch_keeps_no_image () =
  List.iter
    (fun codec ->
      let module Disk = Wafl_storage.Disk in
      let eng = Wafl_sim.Engine.create ~cores:1 () in
      let disk = Disk.create ?codec (small_geom ()) in
      let w = ref (Weak.create 1) and group = ref None in
      ignore
        (Wafl_sim.Engine.spawn eng ~label:"io" (fun () ->
             let raid = Wafl_storage.Raid.create eng ~cost:Wafl_sim.Cost.default ~disk ~rg:0 in
             group := Some raid;
             w := submit_metafile raid 100;
             Wafl_storage.Raid.quiesce raid;
             Alcotest.(check bool) "durable" true (Disk.discard disk 100 <> None);
             Wafl_storage.Raid.shutdown raid));
      Wafl_sim.Engine.run eng;
      Gc.full_major ();
      Alcotest.(check bool) "the image is not kept alive" true (Weak.get !w 0 = None);
      (* The group, and so its pool, is still live here. *)
      Alcotest.(check int) "one I/O" 1
        (Wafl_storage.Raid.ios_completed (Option.get !group)))
    [ Some Layout.data_codec; None ]

let test_first_cp_snapshot_dropped () =
  let eng = Wafl_sim.Engine.create ~cores:8 () in
  let agg =
    Aggregate.create eng ~cost:Wafl_sim.Cost.default ~geometry:(small_geom ()) ~nvlog_half:4096 ()
  in
  let walloc = Wafl_core.Walloc.create agg Wafl_core.Walloc.default_config in
  let cp = Wafl_core.Walloc.cp walloc in
  let bmaps = 16 in
  let held = ref None in
  ignore
    (Wafl_sim.Engine.spawn eng ~label:"setup" (fun () ->
         let vol = Aggregate.create_volume agg ~vvbn_space:65536 in
         Wafl_core.Walloc.register_volume walloc vol;
         let vid = Volume.id vol in
         let f = Aggregate.create_file agg ~vol:vid in
         let write_gen n gen =
           for i = 0 to n - 1 do
             let fbn = i * Layout.entries_per_bmap_block in
             ignore
               (Aggregate.write agg ~vol:vid ~file:(File.id f) ~fbn ~content:(content ~gen ~fbn))
           done;
           Wafl_core.Cp.run_now cp
         in
         write_gen bmaps 0;
         let snap = Aggregate.create_snapshot agg ~name:"s" in
         let w = weak_records (Aggregate.disk agg) (List.init bmaps (File.bmap_location f)) in
         write_gen bmaps 1;
         Aggregate.delete_snapshot agg snap;
         write_gen 1 2;
         write_gen 1 3;
         held := Some w));
  Wafl_sim.Engine.run eng;
  let w = Option.get !held in
  Gc.full_major ();
  let reachable = ref 0 in
  for i = 0 to Weak.length w - 1 do
    if Weak.check w i then incr reachable
  done;
  Alcotest.(check int) "deleted snapshot's block-map images reachable" 0 !reachable;
  Aggregate.fsck agg

(* --- Dirty sets, the file dirty table and the LRU against models --- *)

let sorted_unique l = List.sort_uniq Int.compare l

(* Each [true] step checks the dirty lists and clears them; each [false]
   step toggles a bit. *)
let prop_bitmap_dirty_lists =
  let bits = 5 * Layout.bits_per_map_block in
  QCheck.Test.make ~name:"bitmap dirty lists match a sorted-unique model" ~count:200
    QCheck.(list_of_size Gen.(0 -- 300) (pair (int_bound 9) (int_bound (bits - 1))))
    (fun ops ->
      let b = Bitmap_file.create ~bits in
      let touched = ref [] in
      let agrees () =
        let want = sorted_unique !touched in
        Bitmap_file.dirty_blocks b = want
        && Bitmap_file.dirty_blocks_desc b = List.rev want
        && Bitmap_file.dirty_count b = List.length want
      in
      List.for_all
        (fun (op, bit) ->
          if op = 0 then begin
            let ok = agrees () in
            Bitmap_file.clear_dirty b;
            touched := [];
            ok
          end
          else begin
            if Bitmap_file.mem b bit then Bitmap_file.clear b bit else Bitmap_file.set b bit;
            touched := Bitmap_file.block_of_bit bit :: !touched;
            true
          end)
        ops
      && agrees ())

let prop_volume_dirty_lists =
  let space = 40 * Layout.entries_per_container_block in
  QCheck.Test.make ~name:"volume dirty lists match a sorted-unique model" ~count:200
    QCheck.(list_of_size Gen.(0 -- 300) (pair (int_bound 9) (int_bound (space - 1))))
    (fun ops ->
      let v = Volume.create ~id:0 ~vvbn_space:space in
      let chunks = ref [] and inodes = ref [] in
      let agrees () =
        let c = sorted_unique !chunks and i = sorted_unique !inodes in
        Volume.dirty_container_chunks v = c
        && Volume.dirty_container_chunks_desc v = List.rev c
        && Volume.dirty_inode_chunks v = i
        && Volume.dirty_inode_chunks_desc v = List.rev i
      in
      List.for_all
        (fun (op, x) ->
          match op with
          | 0 ->
              let ok = agrees () in
              Volume.clear_dirty_containers v;
              Volume.clear_dirty_inode_chunks v;
              chunks := [];
              inodes := [];
              ok
          | 1 ->
              (* a file id well past the dense range *)
              let f = File.create ~vol:0 ~id:x in
              if Volume.file v x = None then begin
                Volume.add_file v f;
                inodes := (x / Layout.inodes_per_block) :: !inodes
              end;
              true
          | _ ->
              ignore (Volume.map_vvbn v ~vvbn:x ~pvbn:x);
              chunks := (x / Layout.entries_per_container_block) :: !chunks;
              true)
        ops
      && agrees ())

(* Several files over one shared dirty-buffer table, each against its
   own front and CP Hashtbl models, with snapshots and CP completions
   interleaved across files. *)
type file_op = Write of int * int * int | Snapshot of int | Done of int | Read of int * int

let shared_files = 3

let file_op_gen =
  let open QCheck.Gen in
  let file = int_bound (shared_files - 1) in
  frequency
    [
      (6, map3 (fun f fbn c -> Write (f, fbn, c)) file (int_bound 700) int);
      (1, map (fun f -> Snapshot f) file);
      (1, map (fun f -> Done f) file);
      (3, map2 (fun f fbn -> Read (f, fbn)) file (int_bound 700));
    ]

let prop_file_dirty_table =
  let print = function
    | Write (f, fbn, c) -> Printf.sprintf "write %d %d %d" f fbn c
    | Snapshot f -> Printf.sprintf "snapshot %d" f
    | Done f -> Printf.sprintf "done %d" f
    | Read (f, fbn) -> Printf.sprintf "read %d %d" f fbn
  in
  QCheck.Test.make ~name:"file dirty table matches a Hashtbl model" ~count:200
    (QCheck.make ~print:(QCheck.Print.list print) QCheck.Gen.(list_size (0 -- 500) file_op_gen))
    (fun ops ->
      let buffers = File.buffers () in
      let files = Array.init shared_files (fun id -> File.create_in buffers ~vol:(id mod 2) ~id) in
      let front = Array.init shared_files (fun _ -> Hashtbl.create 16) in
      let cp = Array.init shared_files (fun _ -> Hashtbl.create 16) in
      let outstanding = Array.make shared_files false in
      let agrees i =
        let sorted = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) cp.(i) []) (* sorted *) in
        File.dirty_front files.(i) = Hashtbl.length front.(i)
        && File.cp_buffer_count files.(i) = Hashtbl.length cp.(i)
        && cp_buffers files.(i) = sorted
      in
      let held () =
        Array.fold_left (fun n h -> n + Hashtbl.length h) 0 front
        + Array.fold_left (fun n h -> n + Hashtbl.length h) 0 cp
      in
      List.for_all
        (fun op ->
          (match op with
          | Write (i, fbn, c) ->
              File.write files.(i) ~fbn ~content:(Int64.of_int c);
              Hashtbl.replace front.(i) fbn (Int64.of_int c);
              true
          | Snapshot i ->
              if not outstanding.(i) then begin
                File.cp_snapshot files.(i);
                Hashtbl.reset cp.(i);
                Hashtbl.iter (fun k v -> Hashtbl.replace cp.(i) k v) front.(i); (* a copy *)
                Hashtbl.reset front.(i);
                outstanding.(i) <- true
              end;
              true
          | Done i ->
              File.cp_done files.(i);
              Hashtbl.reset cp.(i);
              outstanding.(i) <- false;
              true
          | Read (i, fbn) ->
              let want =
                match Hashtbl.find_opt front.(i) fbn with
                | Some c -> Some c
                | None -> Hashtbl.find_opt cp.(i) fbn
              in
              File.read_cached files.(i) ~fbn = want)
          && File.buffered buffers = held ()
          && List.for_all agrees (List.init shared_files Fun.id))
        ops)

(* The NVLog bound: every buffer the aggregate holds, front or CP, is
   covered by a log record, so the shared table never holds more
   bindings than the log holds records.  A client fiber writes random
   fbns of two files and starts CPs in the background; a monitor fiber
   checks the bound every half virtual microsecond, and the client after
   each write. *)
let prop_dirty_buffers_bounded_by_nvlog =
  QCheck.Test.make ~name:"dirty buffers never exceed the NVLog's records" ~count:25
    QCheck.(list_of_size Gen.(1 -- 400) (option ~ratio:0.97 (pair bool (int_bound 600))))
    (fun steps ->
      let eng = Wafl_sim.Engine.create ~cores:8 () in
      let agg =
        Aggregate.create eng ~cost:Wafl_sim.Cost.default ~geometry:(small_geom ()) ~nvlog_half:256
          ()
      in
      let walloc = Wafl_core.Walloc.create agg Wafl_core.Walloc.default_config in
      let cp = Wafl_core.Walloc.cp walloc in
      let within () = Aggregate.dirty_buffers agg <= Nvlog.total_pending (Aggregate.nvlog agg) in
      let ok = ref true and finished = ref false and cps = ref 0 in
      ignore
        (Wafl_sim.Engine.spawn eng ~label:"client" (fun () ->
             let vol = Aggregate.create_volume agg ~vvbn_space:65536 in
             Wafl_core.Walloc.register_volume walloc vol;
             let vid = Volume.id vol in
             let files = Array.init 2 (fun _ -> File.id (Aggregate.create_file agg ~vol:vid)) in
             List.iteri
               (fun i step ->
                 match step with
                 | Some (second, fbn) ->
                     Aggregate.wait_for_log_space agg;
                     ignore
                       (Aggregate.write agg ~vol:vid ~file:files.(Bool.to_int second) ~fbn
                          ~content:(content ~gen:i ~fbn));
                     if not (within ()) then ok := false;
                     Wafl_sim.Engine.sleep 0.2
                 | None ->
                     incr cps;
                     ignore (Wafl_sim.Engine.spawn eng ~label:"cp" (fun () -> Wafl_core.Cp.run_now cp)))
               steps;
             Wafl_core.Cp.run_now cp;
             finished := true));
      ignore
        (Wafl_sim.Engine.spawn eng ~label:"monitor" (fun () ->
             while not !finished do
               if not (within ()) then ok := false;
               Wafl_sim.Engine.sleep 0.5
             done));
      Wafl_sim.Engine.run eng;
      !finished && !ok && Aggregate.dirty_buffers agg = 0)

(* A list model of exact LRU, most recent first. *)
type lru_model = {
  mutable entries : int list;
  mutable m_hits : int;
  mutable m_misses : int;
  mutable m_evictions : int;
}

let model_probe m ~cap k =
  if List.mem k m.entries then begin
    m.m_hits <- m.m_hits + 1;
    m.entries <- k :: List.filter (( <> ) k) m.entries;
    true
  end
  else begin
    m.m_misses <- m.m_misses + 1;
    if List.length m.entries >= cap then begin
      m.m_evictions <- m.m_evictions + 1;
      m.entries <- List.filteri (fun i _ -> i < cap - 1) m.entries
    end;
    m.entries <- k :: m.entries;
    false
  end

(* Probe (true) or invalidate (false) each key; every probe's hit/miss,
   the counters, the length and residency of every key must agree. *)
let lru_agrees ~cap ~keys trace =
  let c = Buffer_cache.create ~capacity:cap in
  let m = { entries = []; m_hits = 0; m_misses = 0; m_evictions = 0 } in
  List.for_all
    (fun (probe, k) ->
      if probe then Buffer_cache.probe c k = model_probe m ~cap k
      else begin
        Buffer_cache.invalidate c k;
        m.entries <- List.filter (( <> ) k) m.entries;
        true
      end)
    trace
  && Buffer_cache.hits c = m.m_hits
  && Buffer_cache.misses c = m.m_misses
  && Buffer_cache.evictions c = m.m_evictions
  && Buffer_cache.length c = List.length m.entries
  && List.for_all (fun k -> Buffer_cache.contains c k = List.mem k m.entries) (List.init keys Fun.id)

let prop_cache_matches_list_model =
  QCheck.Test.make ~name:"cache matches a list LRU model" ~count:300
    QCheck.(
      pair (int_range 1 8)
        (list_of_size Gen.(0 -- 300) (pair (map (fun x -> x < 8) (int_bound 9)) (int_bound 24))))
    (fun (cap, trace) -> lru_agrees ~cap ~keys:25 trace)

(* Past the first slot-array doubling (1024 slots) and index rebuild. *)
let test_cache_growth_matches_model () =
  let rng = Wafl_util.Rng.create ~seed:7 in
  let trace =
    List.init 12_000 (fun _ -> (Wafl_util.Rng.int rng 10 < 9, Wafl_util.Rng.int rng 2000))
  in
  Alcotest.(check bool) "agrees with the list model" true (lru_agrees ~cap:1500 ~keys:2000 trace)

(* --- Allocation guard: the per-op primitives allocate nothing --- *)

(* Minor words allocated by [f] beyond what measuring allocates. *)
let minor_words_of f =
  let measure g =
    let w0 = Gc.minor_words () in
    g ();
    Gc.minor_words () -. w0
  in
  measure f -. measure (fun () -> ())

let check_no_alloc name f = Alcotest.(check (float 0.0)) name 0.0 (minor_words_of f)
let n_calls = 10_000

let test_alloc_bitmap () =
  let b = Bitmap_file.create ~bits:(4 * Layout.bits_per_map_block) in
  let stride i = i * 13 mod Bitmap_file.nbits b in
  (* One warm-up round grows the dirty set to its working size. *)
  for i = 0 to n_calls - 1 do
    Bitmap_file.set b (stride i)
  done;
  for i = 0 to n_calls - 1 do
    Bitmap_file.clear b (stride i)
  done;
  Bitmap_file.clear_dirty b;
  check_no_alloc "set" (fun () ->
      for i = 0 to n_calls - 1 do
        Bitmap_file.set b (stride i)
      done);
  let hits = ref 0 in
  check_no_alloc "mem" (fun () ->
      for i = 0 to n_calls - 1 do
        if Bitmap_file.mem b (stride i) then incr hits
      done);
  Alcotest.(check int) "every bit set" n_calls !hits;
  check_no_alloc "clear" (fun () ->
      for i = 0 to n_calls - 1 do
        Bitmap_file.clear b (stride i)
      done)

let test_alloc_freed_set () =
  let bits = 4 * Layout.bits_per_map_block in
  let s = Freed_set.create ~bits in
  let stride i = i * 13 mod bits in
  let fill () =
    for i = 0 to n_calls - 1 do
      Freed_set.add s (stride i)
    done
  in
  fill ();
  Freed_set.release s ignore;
  check_no_alloc "add" fill;
  let hits = ref 0 in
  check_no_alloc "mem" (fun () ->
      for i = 0 to n_calls - 1 do
        if Freed_set.mem s (stride i) then incr hits
      done);
  Alcotest.(check int) "every vbn frozen" n_calls !hits

let test_alloc_buffer_cache () =
  let c = Buffer_cache.create ~capacity:n_calls in
  for k = 0 to n_calls - 1 do
    ignore (Buffer_cache.probe c k)
  done;
  check_no_alloc "probe hit" (fun () ->
      for k = 0 to n_calls - 1 do
        ignore (Buffer_cache.probe c k)
      done);
  check_no_alloc "probe miss that evicts" (fun () ->
      for k = n_calls to (2 * n_calls) - 1 do
        ignore (Buffer_cache.probe c k)
      done);
  Alcotest.(check int) "evicted" n_calls (Buffer_cache.evictions c);
  check_no_alloc "invalidate" (fun () ->
      for k = n_calls to (2 * n_calls) - 1 do
        Buffer_cache.invalidate c k
      done);
  Alcotest.(check int) "emptied" 0 (Buffer_cache.length c)

(* A client write's whole host path: the NVLog append and the dirty
   insert.  Two CPs first grow the log ring, the shared table and both
   of the file's presence bitmaps to the working size, and one write
   puts the file back on its volume's dirty list (a list cell); after
   that, writing fbns no buffer holds allocates nothing. *)
let test_alloc_aggregate_write () =
  let n = 2048 (* two CPs of it fit the small geometry *) in
  let eng = Wafl_sim.Engine.create ~cores:8 () in
  let agg =
    Aggregate.create eng ~cost:Wafl_sim.Cost.default ~geometry:(small_geom ())
      ~nvlog_half:(4 * n) ()
  in
  let walloc = Wafl_core.Walloc.create agg Wafl_core.Walloc.default_config in
  let cp = Wafl_core.Walloc.cp walloc in
  let ids = ref None in
  let write_range vol file lo hi =
    for fbn = lo to hi - 1 do
      ignore (Aggregate.write agg ~vol ~file ~fbn ~content:1L)
    done
  in
  ignore
    (Wafl_sim.Engine.spawn eng ~label:"setup" (fun () ->
         let vol = Aggregate.create_volume agg ~vvbn_space:65536 in
         Wafl_core.Walloc.register_volume walloc vol;
         let vol = Volume.id vol in
         let file = File.id (Aggregate.create_file agg ~vol) in
         for _ = 1 to 2 do
           write_range vol file 0 n;
           Wafl_core.Cp.run_now cp
         done;
         ids := Some (vol, file)));
  Wafl_sim.Engine.run eng;
  let vol, file = Option.get !ids in
  Alcotest.(check int) "drained" 0 (Aggregate.dirty_buffers agg);
  write_range vol file 0 1;
  check_no_alloc "log and buffer fresh fbns" (fun () -> write_range vol file 1 n);
  Alcotest.(check int) "one buffer per fbn" n (Aggregate.dirty_buffers agg);
  Alcotest.(check int) "one record per write" n (Nvlog.pending (Aggregate.nvlog agg))

(* The CP side of the dirty buffers: a snapshot is a generation flip and
   its completion unbinds each buffer in place. *)
let test_alloc_file_cp () =
  let f = File.create ~vol:0 ~id:0 in
  let fill () =
    for fbn = 0 to n_calls - 1 do
      File.write f ~fbn ~content:1L
    done
  in
  fill ();
  File.cp_snapshot f;
  File.cp_done f;
  fill ();
  check_no_alloc "cp_snapshot" (fun () -> File.cp_snapshot f);
  Alcotest.(check int) "snapshot holds every buffer" n_calls (File.cp_buffer_count f);
  check_no_alloc "cp_done" (fun () -> File.cp_done f);
  Alcotest.(check int) "snapshot released" 0 (File.cp_buffer_count f)

let test_alloc_file_write () =
  let f = File.create ~vol:0 ~id:0 in
  for fbn = 0 to n_calls - 1 do
    File.write f ~fbn ~content:1L
  done;
  check_no_alloc "rewrite a dirty fbn" (fun () ->
      for fbn = 0 to n_calls - 1 do
        File.write f ~fbn ~content:2L
      done);
  Alcotest.(check int) "still one buffer per fbn" n_calls (File.dirty_front f)

let test_alloc_stage () =
  let module Stage = Wafl_core.Stage in
  let s = Stage.create ~target:Stage.Phys ~capacity:n_calls in
  (* Unsorted input with repeats drains ascending, and a drained stage
     refills and drains the same way. *)
  let fill () =
    for i = 0 to n_calls - 1 do
      ignore (Stage.add s (i * 7919 mod (n_calls / 2)))
    done
  in
  let want = Array.init n_calls (fun i -> i * 7919 mod (n_calls / 2)) in
  Array.sort compare want;
  fill ();
  Alcotest.(check (array int)) "drained ascending" want (Stage.drain s);
  Alcotest.(check bool) "empty after drain" true (Stage.is_empty s);
  check_no_alloc "add up to capacity" fill;
  Alcotest.(check bool) "full" true (Stage.length s = Stage.capacity s);
  Alcotest.(check (array int)) "drained the same again" want (Stage.drain s)

let test_alloc_free_walk () =
  let bits = 4 * Layout.bits_per_map_block in
  let b = Bitmap_file.create ~bits in
  for i = 0 to bits - 1 do
    if i mod 3 <> 0 then Bitmap_file.set b i
  done;
  check_no_alloc "walk with a no-op callback" (fun () ->
      for i = 0 to 99 do
        Bitmap_file.iter_free b ~lo:(i * 7) ~hi:(bits - 1 - i) (fun _ -> ())
      done)

let test_alloc_geometry () =
  let g =
    Wafl_storage.Geometry.create ~drive_blocks:4096 ~aa_stripes:512
      ~raid_groups:[ (3, 1); (4, 1) ] ()
  in
  let total = Wafl_storage.Geometry.total_data_blocks g in
  let sum = ref 0 in
  check_no_alloc "rg_of / dbn_of / rg_offset" (fun () ->
      for i = 0 to n_calls - 1 do
        let v = i * 7 mod total in
        sum :=
          !sum + Wafl_storage.Geometry.rg_of g v + Wafl_storage.Geometry.dbn_of g v
          + Wafl_storage.Geometry.rg_offset g v
      done);
  Alcotest.(check bool) "computed" true (!sum > 0)

(* Slot traffic into pages the store already holds: a write into a
   present or an absent slot, and a discard.  A discard allocates only
   the [Some] it returns (two words).  The last slot of each page holds
   an image throughout, so no discard empties its page. *)
let test_alloc_disk () =
  let module Disk = Wafl_storage.Disk in
  let g =
    Wafl_storage.Geometry.create ~drive_blocks:8192 ~aa_stripes:512 ~raid_groups:[ (2, 1) ] ()
  in
  let d = Disk.create g in
  let payload = "image" in
  let vbn i = ((i mod 4) * 4096) + (i / 4) in
  for page = 0 to 3 do
    Disk.write d ((page * 4096) + 4095) payload
  done;
  let write_all () =
    for i = 0 to n_calls - 1 do
      Disk.write d (vbn i) payload
    done
  in
  let dropped = ref 0 in
  let discard_all () =
    for i = 0 to n_calls - 1 do
      match Disk.discard d (vbn i) with Some _ -> incr dropped | None -> ()
    done
  in
  write_all ();
  discard_all ();
  check_no_alloc "write an absent slot" write_all;
  check_no_alloc "write a present slot" write_all;
  dropped := 0;
  Alcotest.(check (float 0.0))
    "discard: only the returned option"
    (float_of_int (2 * n_calls))
    (minor_words_of discard_all);
  Alcotest.(check int) "every image dropped" n_calls !dropped

(* The same traffic on a store with the data codec (and the same kept
   last slots): compact writes and discards allocate nothing, not even
   the option a boxed discard returns. *)
let test_alloc_disk_compact () =
  let module Disk = Wafl_storage.Disk in
  let g =
    Wafl_storage.Geometry.create ~drive_blocks:8192 ~aa_stripes:512 ~raid_groups:[ (2, 1) ] ()
  in
  let d = Disk.create ~codec:Layout.data_codec g in
  let payload = Layout.Data { vol = 3; file = 5; fbn = 7; content = 0x1234_5678_9abc_def0L } in
  let vbn i = ((i mod 4) * 4096) + (i / 4) in
  for page = 0 to 3 do
    Disk.write d ((page * 4096) + 4095) payload
  done;
  let write_all () =
    for i = 0 to n_calls - 1 do
      Disk.write d (vbn i) payload
    done
  in
  let kept = ref 0 in
  let discard_all () =
    for i = 0 to n_calls - 1 do
      match Disk.discard d (vbn i) with Some _ -> incr kept | None -> ()
    done
  in
  write_all ();
  discard_all ();
  check_no_alloc "compact write, absent slot" write_all;
  check_no_alloc "compact write, present slot" write_all;
  Alcotest.(check bool) "stored compact" true (Disk.read d (vbn 17) = Some payload);
  check_no_alloc "compact discard" discard_all;
  Alcotest.(check int) "no image handed back" 0 !kept;
  Alcotest.(check bool) "discarded" true (Disk.read d (vbn 17) = None)

(* A cached read of an on-disk compact block checks the slot's key and
   takes its word: it builds no [Layout.Data] (a 5-word record, with the
   [Some] and the [`Ok] around it, 9 words more: 23 in all).  What is
   left is the result (the pair, its [Some] and the boxed content), the
   RAID read's [`Word] and the options of the volume and file lookups:
   14 words. *)
let test_alloc_compact_read () =
  let eng = Wafl_sim.Engine.create ~cores:8 () in
  let agg =
    Aggregate.create eng ~cost:Wafl_sim.Cost.default ~geometry:(small_geom ()) ~nvlog_half:4096 ()
  in
  let walloc = Wafl_core.Walloc.create agg Wafl_core.Walloc.default_config in
  let ids = ref None in
  ignore
    (Wafl_sim.Engine.spawn eng ~label:"setup" (fun () ->
         let vol = Aggregate.create_volume agg ~vvbn_space:65536 in
         Wafl_core.Walloc.register_volume walloc vol;
         let f = Aggregate.create_file agg ~vol:(Volume.id vol) in
         for fbn = 0 to 63 do
           ignore
             (Aggregate.write agg ~vol:(Volume.id vol) ~file:(File.id f) ~fbn
                ~content:(content ~gen:0 ~fbn))
         done;
         Wafl_core.Cp.run_now (Wafl_core.Walloc.cp walloc);
         ids := Some (Volume.id vol, File.id f)));
  Wafl_sim.Engine.run eng;
  let vol, file = Option.get !ids in
  let sum = ref 0L in
  let reads () =
    for i = 0 to n_calls - 1 do
      match Aggregate.read_cached_status agg ~vol ~file ~fbn:(i land 63) with
      | Some c, (`Hit | `Miss) -> sum := Int64.add !sum c
      | _ -> Alcotest.fail "expected an on-disk read"
    done
  in
  reads ();
  let per_read = minor_words_of reads /. float_of_int n_calls in
  Alcotest.(check (float 0.0)) "words a read" 14.0 per_read;
  let expected = ref 0 in
  for i = 0 to n_calls - 1 do
    expected := !expected + (2 * (i land 63))
  done;
  Alcotest.(check int64) "contents, both passes" (Int64.of_int !expected) !sum

(* An aggregate holding one file (vol 0, file 0) of [blocks] data
   blocks, all committed by one CP. *)
let agg_with_blocks blocks =
  let eng = Wafl_sim.Engine.create ~cores:8 () in
  let geometry =
    Wafl_storage.Geometry.create ~drive_blocks:8192 ~aa_stripes:512 ~raid_groups:[ (3, 1) ] ()
  in
  let agg = Aggregate.create eng ~cost:Wafl_sim.Cost.default ~geometry ~nvlog_half:16384 () in
  let walloc = Wafl_core.Walloc.create agg Wafl_core.Walloc.default_config in
  ignore
    (Wafl_sim.Engine.spawn eng ~label:"setup" (fun () ->
         let vol = Aggregate.create_volume agg ~vvbn_space:65536 in
         Wafl_core.Walloc.register_volume walloc vol;
         let f = Aggregate.create_file agg ~vol:(Volume.id vol) in
         for fbn = 0 to blocks - 1 do
           ignore
             (Aggregate.write agg ~vol:(Volume.id vol) ~file:(File.id f) ~fbn
                ~content:(content ~gen:0 ~fbn))
         done;
         Wafl_core.Cp.run_now (Wafl_core.Walloc.cp walloc)));
  Wafl_sim.Engine.run eng;
  agg

(* fsck claims each block in a dense array and formats a message only
   when a check fails, so the words it allocates do not grow with the
   data blocks it checks.  Each block once cost two formatted strings
   and two hash-table entries: 124.5 words. *)
let test_alloc_fsck_per_data_block () =
  let fsck_words blocks =
    let agg = agg_with_blocks blocks in
    Aggregate.fsck agg;
    minor_words_of (fun () -> Aggregate.fsck agg)
  in
  let small = fsck_words 2_000 and large = fsck_words 12_000 in
  let per_block = (large -. small) /. 10_000.0 in
  if per_block >= 1.0 then Alcotest.failf "fsck allocates %.2f words per data block" per_block

(* A claim is decoded only when a check fails: a block-map block moved
   onto a data block's pvbn is reported with both claimants named. *)
let test_fsck_names_double_claim () =
  let agg = agg_with_blocks 600 in
  let v = Aggregate.volume_exn agg 0 in
  let pvbn = Volume.pvbn_of_vvbn v (File.vvbn_of_fbn (Volume.file_exn v 0) 7) in
  ignore
    (Aggregate.meta_set_location agg (Blockref.Bmap_block { vol = 0; file = 0; index = 1 }) pvbn);
  match Aggregate.fsck agg with
  | () -> Alcotest.fail "fsck passed a pvbn claimed twice"
  | exception Failure m ->
      Alcotest.(check string) "both claimants"
        (Printf.sprintf
           "fsck: pvbn %d claimed by both vol 0 file 0 bmap block 1 and vol 0 file 0 fbn 7" pvbn)
        m

(* Memory guard: a data block written through the aggregate and a CP
   adds no heap block to the disk.  Its two compact words live in a page
   that the first batches already made, so what a block adds is its
   share of the metafile images that map it (a block-map and a
   container entry, 4 bytes each, in their slabs): under 3 words of
   slab, where a boxed record and its boxed int64 content cost 8 more.
   On the heap, each 512-entry image is a record and a custom block. *)
let image_bytes = function
  | Layout.Bmap { entries = p; _ } | Layout.Container { entries = p; _ } -> Wafl_util.Packed.bytes p
  | Layout.Vol_map { words = p; _ } | Layout.Agg_map { words = p; _ } -> Wafl_util.Packed.bytes p
  | Layout.Data _ | Layout.Inode_chunk _ -> 0

let test_disk_words_per_data_block () =
  let eng = Wafl_sim.Engine.create ~cores:8 () in
  let agg =
    Aggregate.create eng ~cost:Wafl_sim.Cost.default ~geometry:(small_geom ()) ~nvlog_half:8192 ()
  in
  let walloc = Wafl_core.Walloc.create agg Wafl_core.Walloc.default_config in
  let cp = Wafl_core.Walloc.cp walloc in
  let batch = 2048 and prefill = 3 and measured = 2 in
  let words () = Obj.reachable_words (Obj.repr (Aggregate.disk agg)) in
  let bytes () =
    let d = Aggregate.disk agg in
    let images = ref 0 in
    for vbn = 0 to Wafl_storage.Geometry.total_data_blocks (small_geom ()) - 1 do
      match Wafl_storage.Disk.read d vbn with Some b -> images := !images + image_bytes b | None -> ()
    done;
    Wafl_storage.Disk.slab_bytes d + !images
  in
  let growth = ref None in
  ignore
    (Wafl_sim.Engine.spawn eng ~label:"setup" (fun () ->
         let vol = Aggregate.create_volume agg ~vvbn_space:65536 in
         Wafl_core.Walloc.register_volume walloc vol;
         let f = Aggregate.create_file agg ~vol:(Volume.id vol) in
         let fill i =
           for fbn = i * batch to ((i + 1) * batch) - 1 do
             ignore
               (Aggregate.write agg ~vol:(Volume.id vol) ~file:(File.id f) ~fbn
                  ~content:(content ~gen:0 ~fbn))
           done;
           Wafl_core.Cp.run_now cp
         in
         for i = 0 to prefill - 1 do
           fill i
         done;
         let w0 = words () and b0 = bytes () in
         for i = prefill to prefill + measured - 1 do
           fill i
         done;
         growth := Some (words () - w0, bytes () - b0)));
  Wafl_sim.Engine.run eng;
  let g, b = Option.get !growth and blocks = measured * batch in
  let per_block = float_of_int b /. 8.0 /. float_of_int blocks in
  Alcotest.(check bool)
    (Printf.sprintf "%d slab bytes for %d data blocks (%.2f words a block)" b blocks per_block)
    true (per_block <= 3.0);
  let heap = float_of_int g /. float_of_int blocks in
  Alcotest.(check bool)
    (Printf.sprintf "%d heap words for %d data blocks (%.3f a block)" g blocks heap)
    true (heap <= 0.25)

let () =
  Alcotest.run "wafl_fs"
    [
      ( "bitmap_file",
        [
          Alcotest.test_case "set/clear/free count" `Quick test_bitmap_set_clear;
          Alcotest.test_case "double ops rejected" `Quick test_bitmap_double_ops_rejected;
          Alcotest.test_case "find_free" `Quick test_bitmap_find_free;
          Alcotest.test_case "find_free word boundaries" `Quick
            test_bitmap_find_free_word_boundaries;
          Alcotest.test_case "count_free_in" `Quick test_bitmap_count_free_in;
          Alcotest.test_case "dirty tracking" `Quick test_bitmap_dirty_tracking;
          Alcotest.test_case "block serialization roundtrip" `Quick test_bitmap_block_roundtrip;
          Alcotest.test_case "locations" `Quick test_bitmap_locations;
          QCheck_alcotest.to_alcotest ~verbose:false prop_bitmap_free_count_consistent;
          QCheck_alcotest.to_alcotest ~verbose:false prop_bitmap_dirty_lists;
          QCheck_alcotest.to_alcotest ~verbose:false prop_bitmap_walk_matches_find_free;
        ] );
      ( "file",
        [
          Alcotest.test_case "write/snapshot/COW" `Quick test_file_write_snapshot_cow;
          Alcotest.test_case "double snapshot rejected" `Quick test_file_double_snapshot_rejected;
          Alcotest.test_case "bmap and inode record" `Quick test_file_bmap_and_inode_rec;
          QCheck_alcotest.to_alcotest ~verbose:false prop_file_dirty_table;
        ] );
      ( "volume",
        [
          Alcotest.test_case "dirty inode tracking" `Quick test_volume_dirty_inode_tracking;
          Alcotest.test_case "container map" `Quick test_volume_container_map;
          Alcotest.test_case "container map sized at creation" `Quick
            test_volume_container_sized;
          Alcotest.test_case "inode chunks" `Quick test_volume_inode_chunks;
          Alcotest.test_case "vol_rec roundtrip" `Quick test_volume_vol_rec_roundtrip;
          Alcotest.test_case "recent frees" `Quick test_volume_recent_frees;
          QCheck_alcotest.to_alcotest ~verbose:false prop_volume_dirty_lists;
        ] );
      ( "nvlog",
        [
          Alcotest.test_case "halves" `Quick test_nvlog_halves;
          Alcotest.test_case "exhaustion" `Quick test_nvlog_exhaustion;
          Alcotest.test_case "replay order" `Quick test_nvlog_replay_order;
          Alcotest.test_case "recover reset" `Quick test_nvlog_recover_reset;
          Alcotest.test_case "tear clamps" `Quick test_nvlog_tear_clamps;
          Alcotest.test_case "replay stops at torn" `Quick test_nvlog_replay_stops_at_torn;
          Alcotest.test_case "recover reset discards torn" `Quick
            test_nvlog_recover_reset_discards_torn;
          Alcotest.test_case "second tear" `Quick test_nvlog_second_tear;
          QCheck_alcotest.to_alcotest ~verbose:false prop_nvlog_ring;
        ] );
      ( "counters",
        [
          Alcotest.test_case "loose accounting" `Quick test_counters_loose_accounting;
          QCheck_alcotest.to_alcotest ~verbose:false prop_counters_flush_order_irrelevant;
        ] );
      ( "buffer_cache",
        [
          Alcotest.test_case "probe/insert" `Quick test_cache_probe_insert;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "invalidate" `Quick test_cache_invalidate;
          Alcotest.test_case "hit rate" `Quick test_cache_hit_rate;
          QCheck_alcotest.to_alcotest ~verbose:false prop_cache_never_exceeds_capacity;
          QCheck_alcotest.to_alcotest ~verbose:false prop_cache_matches_list_model;
          Alcotest.test_case "growth matches the model" `Quick test_cache_growth_matches_model;
        ] );
      ( "entry-width",
        [
          Alcotest.test_case "block-map image in 2 KiB" `Quick test_bmap_image_bytes;
          Alcotest.test_case "container map at 4 bytes per vvbn" `Quick
            test_volume_container_bytes;
          Alcotest.test_case "sizes of 2^31 rejected" `Quick test_wide_sizes_rejected;
        ] );
      ( "aggregate",
        [
          Alcotest.test_case "AA accounting" `Quick test_aggregate_aa_accounting;
          Alcotest.test_case "AA selection" `Quick test_aggregate_select_aa;
          Alcotest.test_case "free counter" `Quick test_aggregate_free_counter_tracks;
          QCheck_alcotest.to_alcotest ~verbose:false prop_dirty_buffers_bounded_by_nvlog;
          Alcotest.test_case "fsck names both claimants" `Quick test_fsck_names_double_claim;
        ] );
      ( "img-lifetime",
        [
          Alcotest.test_case "discarded at publish unless held" `Quick test_image_lifetime;
          Alcotest.test_case "crash inside the freeing CP" `Quick test_crash_in_freeing_cp;
          Alcotest.test_case "spares never alias" `Quick test_spares_never_alias;
          Alcotest.test_case "snapshot delete drops images" `Quick
            test_delete_snapshot_drops_images;
          Alcotest.test_case "spare pool holds one publish" `Quick test_spare_pool_bounded;
          Alcotest.test_case "first-CP snapshot images dropped" `Quick
            test_first_cp_snapshot_dropped;
          Alcotest.test_case "completed I/O batches keep no image" `Quick
            test_batch_keeps_no_image;
        ] );
      ( "alloc-guard",
        [
          Alcotest.test_case "bitmap set/clear/mem" `Quick test_alloc_bitmap;
          Alcotest.test_case "freed set add/mem" `Quick test_alloc_freed_set;
          Alcotest.test_case "cache probe/invalidate" `Quick test_alloc_buffer_cache;
          Alcotest.test_case "file rewrite" `Quick test_alloc_file_write;
          Alcotest.test_case "aggregate write of fresh fbns" `Quick test_alloc_aggregate_write;
          Alcotest.test_case "file cp snapshot and done" `Quick test_alloc_file_cp;
          Alcotest.test_case "geometry lookups" `Quick test_alloc_geometry;
          Alcotest.test_case "stage add and drain" `Quick test_alloc_stage;
          Alcotest.test_case "free-bit walk" `Quick test_alloc_free_walk;
          Alcotest.test_case "disk slot traffic" `Quick test_alloc_disk;
          Alcotest.test_case "compact slot traffic" `Quick test_alloc_disk_compact;
          Alcotest.test_case "disk words per data block" `Quick test_disk_words_per_data_block;
          Alcotest.test_case "cached read of a compact block" `Quick test_alloc_compact_read;
          Alcotest.test_case "fsck words per data block" `Quick test_alloc_fsck_per_data_block;
        ] );
    ]
