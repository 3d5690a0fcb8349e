(* Unit tests for Wafl_flash: device sizing and thin provisioning,
   per-stream open blocks, GC reclamation under churn, trims, and
   seeded replay identity (same seed + same host history -> identical
   device signature). *)

open Wafl_flash
open Wafl_sim

let cfg0 =
  { Ftl.default_config with Ftl.pages_per_block = 16; op_ratio = 0.25; prefill = 0.0; seed = 7 }

(* Run [f] with a fresh engine from fiber context (host_write charges
   virtual time). *)
let in_fiber f =
  let eng = Engine.create ~cores:2 () in
  let result = ref None in
  ignore (Engine.spawn eng ~label:"test" (fun () -> result := Some (f eng)));
  Engine.run eng;
  Option.get !result

(* --- sizing ------------------------------------------------------------- *)

let test_sizing () =
  let t = in_fiber (fun eng -> Ftl.create eng ~cfg:cfg0 ~lpns:1024 ~rg:0) in
  (* 1024 lpns / 16 ppb = 64 logical blocks, x1.25 OP = 80 physical. *)
  Alcotest.(check int) "lpns" 1024 (Ftl.lpn_count t);
  Alcotest.(check int) "advertised pages" 1024 (Ftl.logical_pages t);
  Alcotest.(check int) "physical blocks" 80 (Ftl.block_count t);
  Alcotest.(check int) "all free" 80 (Ftl.free_blocks t);
  Alcotest.(check int) "nothing valid" 0 (Ftl.valid_pages t)

let test_thin_provisioning () =
  let cfg = { cfg0 with Ftl.logical_capacity = 0.5 } in
  let t = in_fiber (fun eng -> Ftl.create eng ~cfg ~lpns:1024 ~rg:0) in
  (* Advertised capacity halves; the OP spare is sized off the advertised
     space, so the device shrinks with it. *)
  Alcotest.(check int) "lpn space unchanged" 1024 (Ftl.lpn_count t);
  Alcotest.(check int) "advertised pages" 512 (Ftl.logical_pages t);
  Alcotest.(check int) "physical blocks" 40 (Ftl.block_count t)

let test_prefill_seasons () =
  let cfg = { cfg0 with Ftl.prefill = 0.75 } in
  let t = in_fiber (fun eng -> Ftl.create eng ~cfg ~lpns:1024 ~rg:0) in
  Alcotest.(check int) "prefilled pages valid" 768 (Ftl.valid_pages t);
  (* Seasoning churns the aged span until the free pool sits at the
     GC-idle threshold, as on a long-written device. *)
  Alcotest.(check bool) "free pool drained to steady state" true
    (Ftl.free_blocks t < Ftl.block_count t - (768 / 16))

(* --- streams ------------------------------------------------------------ *)

let test_streams_separate_blocks () =
  let cfg = { cfg0 with Ftl.streams = 2 } in
  let t =
    in_fiber (fun eng ->
        let t = Ftl.create eng ~cfg ~lpns:1024 ~rg:0 in
        Ftl.host_write t [ (0, 0); (1, 1); (2, 0); (3, 1) ];
        t)
  in
  (* Pages written through different streams land in different open
     erase blocks; same stream shares a block. *)
  Alcotest.(check int) "stream 0 pages co-located" (Ftl.block_of_lpn t 0) (Ftl.block_of_lpn t 2);
  Alcotest.(check int) "stream 1 pages co-located" (Ftl.block_of_lpn t 1) (Ftl.block_of_lpn t 3);
  Alcotest.(check bool) "streams use distinct blocks" true
    (Ftl.block_of_lpn t 0 <> Ftl.block_of_lpn t 1);
  let per_stream = Ftl.stream_appended t in
  Alcotest.(check (array int)) "per-stream append counts" [| 2; 2; 0 |] per_stream

let test_stream_clamping () =
  let t =
    in_fiber (fun eng ->
        let t = Ftl.create eng ~cfg:cfg0 ~lpns:64 ~rg:0 in
        (* Out-of-range stream ids clamp instead of raising. *)
        Ftl.host_write t [ (0, -3); (1, 99) ];
        t)
  in
  Alcotest.(check int) "both pages mapped" 2 (Ftl.valid_pages t)

(* --- overwrite, trim, GC ------------------------------------------------ *)

let test_overwrite_and_trim () =
  let eng, t =
    in_fiber (fun eng ->
        let t = Ftl.create eng ~cfg:cfg0 ~lpns:64 ~rg:0 in
        Ftl.host_write t [ (5, 0) ];
        Ftl.host_write t [ (5, 0) ];
        (* remap: old page dead *)
        Ftl.trim t ~lpn:9;
        (* unmapped: no-op *)
        Ftl.trim t ~lpn:5;
        (eng, t))
  in
  Alcotest.(check int) "trimmed page unmapped" (-1) (Ftl.block_of_lpn t 5);
  Alcotest.(check int) "nothing valid" 0 (Ftl.valid_pages t);
  Alcotest.(check int) "one effective trim" 1 (Ftl.trims t);
  Alcotest.(check int) "two host pages" 2 (Reg.count eng "flash.host_pages")

let churn t spins lpns =
  let rng = Wafl_util.Rng.create ~seed:42 in
  for _ = 1 to spins do
    Ftl.host_write t [ (Wafl_util.Rng.int rng lpns, 0) ]
  done

let test_gc_reclaims () =
  let cfg = { cfg0 with Ftl.prefill = 0.9 } in
  let lpns = 1024 in
  let eng, t =
    in_fiber (fun eng ->
        let t = Ftl.create eng ~cfg ~lpns ~rg:0 in
        (* Overwrite churn across a nearly-full device: the GC must
           relocate live pages to reclaim erase blocks. *)
        churn t 4096 (9 * lpns / 10);
        (eng, t))
  in
  Alcotest.(check bool) "gc relocated pages" true (Ftl.gc_pages t > 0);
  Alcotest.(check bool) "erases happened" true (Ftl.erases t > 0);
  (* Write amplification: (host + gc pages) / host pages. *)
  let host = Reg.count eng "flash.host_pages" and gc = Reg.count eng "flash.gc_pages" in
  Alcotest.(check bool) "waf above 1" true
    (host > 0 && float_of_int (host + gc) /. float_of_int host > 1.0);
  Alcotest.(check bool) "wear recorded" true (Ftl.max_wear t >= 1);
  (* Valid count must track the mapped working set exactly. *)
  let mapped = ref 0 in
  for lpn = 0 to lpns - 1 do
    if Ftl.block_of_lpn t lpn >= 0 then incr mapped
  done;
  Alcotest.(check int) "valid = mapped" !mapped (Ftl.valid_pages t)

(* --- replay identity ---------------------------------------------------- *)

let run_history cfg ~lpns ops =
  in_fiber (fun eng ->
      let t = Ftl.create eng ~cfg ~lpns ~rg:0 in
      List.iter
        (fun op ->
          match op with
          | `Write pairs -> Ftl.host_write t pairs
          | `Trim lpn -> Ftl.trim t ~lpn)
        ops;
      Ftl.signature t)

let test_replay_identity_qcheck () =
  let lpns = 256 in
  let gen =
    QCheck2.Gen.(
      list_size (int_bound 200)
        (oneof
           [
             map
               (fun ps -> `Write ps)
               (list_size (int_bound 4) (pair (int_bound (lpns - 1)) (int_bound 2)));
             map (fun l -> `Trim l) (int_bound (lpns - 1));
           ]))
  in
  let cfg = { cfg0 with Ftl.prefill = 0.5; streams = 2 } in
  let test =
    QCheck2.Test.make ~count:30 ~name:"same seed + history -> same signature" gen (fun ops ->
        String.equal (run_history cfg ~lpns ops) (run_history cfg ~lpns ops))
  in
  QCheck_alcotest.to_alcotest test

let test_seed_changes_signature () =
  (* The victim-tie RNG and seasoning churn are seeded: a different seed
     yields a different physical layout for the same logical history. *)
  let ops = [ `Write [ (0, 0); (1, 0) ]; `Trim 0; `Write [ (2, 1) ] ] in
  let cfg = { cfg0 with Ftl.prefill = 0.5; streams = 2 } in
  let a = run_history cfg ~lpns:256 ops in
  let b = run_history { cfg with Ftl.seed = cfg.Ftl.seed + 1 } ~lpns:256 ops in
  Alcotest.(check bool) "signatures differ across seeds" true (not (String.equal a b))

(* --- temperature classifier --------------------------------------------- *)

(* The classifier sees what a RAID batch holds: a compact data block as
   its codec key (no image), anything else as the boxed payload. *)
let data ~fbn = (Wafl_fs.Layout.key_of_data ~vol:0 ~file:1 ~fbn, None)

let test_temperature_classifier () =
  let stream = Wafl_core.Tetris.make_temperature_stream () in
  let classify (key, boxed) = stream key boxed in
  let boxed p = (-1, Some p) in
  (* Metafile payloads are always hot. *)
  let entries = Wafl_util.Packed.of_entries Wafl_util.Slab.empty ~pos:0 ~len:0 ~default:(-1) in
  let words = Wafl_util.Packed.of_words Wafl_util.Slab.empty ~pos:0 ~len:0 in
  Alcotest.(check int) "bmap hot" 1
    (classify (boxed (Wafl_fs.Layout.Bmap { vol = 0; file = 1; index = 0; entries })));
  Alcotest.(check int) "aggmap hot" 1
    (classify (boxed (Wafl_fs.Layout.Agg_map { index = 0; words })));
  (* First sighting of a data block is cold. *)
  Alcotest.(check int) "first write cold" 0 (classify (data ~fbn:0));
  (* Track a population of blocks, then rewrite one immediately: its
     interval (1) is far below a uniform rewrite interval, so it is hot. *)
  for fbn = 1 to 63 do
    ignore (classify (data ~fbn))
  done;
  ignore (classify (data ~fbn:0));
  Alcotest.(check int) "rapid rewrite hot" 1 (classify (data ~fbn:0));
  (* The same block boxed (as one whose fields overflowed the key would
     be) is tracked by the same stamps. *)
  Alcotest.(check int) "boxed rewrite hot" 1
    (classify (boxed (Wafl_fs.Layout.Data { vol = 0; file = 1; fbn = 0; content = 0L })));
  (* A block not seen since the start of tracking reads as cold. *)
  Alcotest.(check int) "stale rewrite cold" 0 (classify (data ~fbn:1))

let () =
  Alcotest.run "wafl_flash"
    [
      ( "ftl",
        [
          Alcotest.test_case "sizing" `Quick test_sizing;
          Alcotest.test_case "thin provisioning" `Quick test_thin_provisioning;
          Alcotest.test_case "prefill seasons to steady state" `Quick test_prefill_seasons;
          Alcotest.test_case "streams use separate blocks" `Quick test_streams_separate_blocks;
          Alcotest.test_case "stream ids clamp" `Quick test_stream_clamping;
          Alcotest.test_case "overwrite and trim" `Quick test_overwrite_and_trim;
          Alcotest.test_case "gc reclaims under churn" `Quick test_gc_reclaims;
          Alcotest.test_case "seed changes signature" `Quick test_seed_changes_signature;
          test_replay_identity_qcheck ();
        ] );
      ( "streams-policy",
        [ Alcotest.test_case "temperature classifier" `Quick test_temperature_classifier ] );
    ]
