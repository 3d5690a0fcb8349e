(* Tests for the workload driver: measurement bookkeeping, workload mixes,
   determinism, and cross-checks between the driver's counters and the
   allocator's. Small geometry and short windows keep these fast. *)

open Wafl_workload

let small_spec = Golden.small_spec

let test_seq_write_basics () =
  let r = Driver.run (small_spec ()) in
  Alcotest.(check bool) "ops recorded" true (r.Driver.ops > 500);
  Alcotest.(check bool) "throughput positive" true (r.Driver.throughput > 0.0);
  Alcotest.(check int) "all ops are writes" r.Driver.ops r.Driver.writes;
  Alcotest.(check int) "ops counted consistently" r.Driver.ops
    (r.Driver.reads + r.Driver.writes + r.Driver.metas);
  Alcotest.(check bool) "latency samples match ops" true
    (Wafl_util.Histogram.count r.Driver.latency = r.Driver.ops);
  Alcotest.(check bool) "CPs ran" true (r.Driver.cps_completed > 0);
  Alcotest.(check bool) "cleaning happened" true (r.Driver.buffers_cleaned > 0)

let test_seq_write_layout_quality () =
  let r = Driver.run (small_spec ()) in
  (* Sequential streams through chunked buckets must leave long physical
     runs (objective 2). *)
  Alcotest.(check bool)
    (Printf.sprintf "contiguity high (%.1f)" r.Driver.read_contiguity)
    true
    (r.Driver.read_contiguity > 8.0);
  Alcotest.(check bool) "mostly full stripes" true
    (r.Driver.full_stripes > r.Driver.partial_stripes)

let test_oltp_mix () =
  let r =
    Driver.run
      (small_spec ~workload:(Driver.Oltp { file_blocks = 1024; read_fraction = 0.67 }) ())
  in
  let total = float_of_int (r.Driver.reads + r.Driver.writes) in
  let read_frac = float_of_int r.Driver.reads /. total in
  Alcotest.(check bool)
    (Printf.sprintf "read fraction ~0.67 (%.2f)" read_frac)
    true
    (read_frac > 0.60 && read_frac < 0.74);
  Alcotest.(check int) "no metadata ops in OLTP" 0 r.Driver.metas

let test_nfs_mix () =
  let r =
    Driver.run
      (small_spec ~workload:(Driver.Nfs_mix { files_per_client = 16; file_blocks = 32 }) ())
  in
  Alcotest.(check bool) "reads present" true (r.Driver.reads > 0);
  Alcotest.(check bool) "writes present" true (r.Driver.writes > 0);
  Alcotest.(check bool) "metadata ops present" true (r.Driver.metas > 0);
  (* Many small files: far more inodes cleaned per buffer than seq write. *)
  Alcotest.(check bool) "many distinct dirty inodes" true (r.Driver.buffers_cleaned > 0)

let test_rand_write_touches_more_metafile_blocks () =
  (* The scattered-free effect needs an address space spanning many
     bitmap blocks; use a medium geometry rather than the tiny one. *)
  let geometry =
    Wafl_storage.Geometry.create ~drive_blocks:65536 ~aa_stripes:1024
      ~raid_groups:[ (4, 1) ] ()
  in
  let medium workload =
    { (small_spec ~workload ()) with Driver.geometry; clients = 6 }
  in
  let seq = Driver.run (medium (Driver.Seq_write { file_blocks = 8192 })) in
  let rand = Driver.run (medium (Driver.Rand_write { file_blocks = 8192 })) in
  let per_op (r : Driver.result) =
    float_of_int r.Driver.metafile_blocks_touched /. float_of_int (max 1 r.Driver.writes)
  in
  Alcotest.(check bool)
    (Printf.sprintf "rand touches more (%.3f vs %.3f)" (per_op rand) (per_op seq))
    true
    (per_op rand > 1.5 *. per_op seq)

let test_think_time_lowers_load () =
  let busy = Driver.run (small_spec ()) in
  let idle = Driver.run (small_spec ~think:200.0 ()) in
  Alcotest.(check bool)
    (Printf.sprintf "think time lowers throughput (%.0f vs %.0f)" idle.Driver.throughput
       busy.Driver.throughput)
    true
    (idle.Driver.throughput < 0.8 *. busy.Driver.throughput);
  Alcotest.(check bool) "and lowers latency" true
    (Wafl_util.Histogram.mean idle.Driver.latency
    <= Wafl_util.Histogram.mean busy.Driver.latency)

(* Whole results (counters, floats, histograms) of the small spec at
   five seeds, each against its golden digest.  The default seed's run
   is "closed seq_write", asserted by [test_golden_digests]. *)
let test_five_seed_determinism () =
  List.iter (fun s -> ignore (Golden.check s Golden.Plain)) Golden.small_spec_seeds

let test_seed_changes_rand_stream () =
  let spec = small_spec ~workload:(Driver.Rand_write { file_blocks = 1024 }) () in
  let a = Driver.run spec in
  let b = Driver.run { spec with Driver.seed = 1234 } in
  (* Different seeds produce different (but similar-scale) runs. *)
  Alcotest.(check bool) "different allocation traffic" true
    (a.Driver.vbns_allocated <> b.Driver.vbns_allocated);
  Alcotest.(check bool) "similar throughput" true
    (Float.abs (a.Driver.throughput -. b.Driver.throughput)
    < 0.25 *. a.Driver.throughput)

let test_alloc_free_balance () =
  let r = Driver.run (small_spec ()) in
  (* Steady-state overwrites: allocations and frees track each other
     (within CP-boundary slack). *)
  let slack = r.Driver.vbns_allocated / 4 in
  Alcotest.(check bool)
    (Printf.sprintf "allocs ~ frees (%d vs %d)" r.Driver.vbns_allocated r.Driver.vbns_freed)
    true
    (abs (r.Driver.vbns_allocated - r.Driver.vbns_freed) < max 4096 slack)

let test_working_set_guard () =
  Alcotest.check_raises "oversized working set rejected"
    (Invalid_argument
       "Driver.run: working set 786432 too large for aggregate of 65536 blocks") (fun () ->
      ignore
        (Driver.run
           (small_spec ~workload:(Driver.Seq_write { file_blocks = 131072 }) ())));
  (* Specs that describe no server are rejected, naming the field, before
     anything is built (no division by a zero volume count, no NaN rates). *)
  List.iter
    (fun (msg, spec) ->
      Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (Driver.run spec)))
    [
      ("Driver.run: clients 0 must be >= 1", small_spec ~clients:0 ());
      ("Driver.run: volumes 0 must be >= 1", { (small_spec ()) with Driver.volumes = 0 });
      ("Driver.run: measure 0 must be > 0", { (small_spec ()) with Driver.measure = 0.0 });
      ("Driver.run: measure -1 must be > 0", { (small_spec ()) with Driver.measure = -1.0 });
    ]

(* Golden digests of whole [Driver.result]s (golden.ml), first recorded
   from the build before the driver's two client loops were merged into
   one op path.  They pin absolute results, so a refactor that shifts a
   single RNG draw or window delta fails here even when no shape flips.
   The [golden] group below asserts the plain run of every other subject
   of the table, and the observe-only suites assert their own runs
   against the same digests. *)
let test_golden_digests () =
  List.iter
    (fun s ->
      let r = Golden.check s Golden.Plain in
      if Array.length r.Driver.tenants > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "QoS both delays and sheds (%d throttled, %d shed)"
             r.Driver.throttled_ops r.Driver.shed_ops)
          true
          (r.Driver.throttled_ops > 0 && r.Driver.shed_ops > 0))
    Golden.driver_results

let () =
  Alcotest.run "wafl_workload"
    [
      ( "driver",
        [
          Alcotest.test_case "sequential write basics" `Quick test_seq_write_basics;
          Alcotest.test_case "layout quality" `Quick test_seq_write_layout_quality;
          Alcotest.test_case "OLTP mix" `Quick test_oltp_mix;
          Alcotest.test_case "NFS mix" `Quick test_nfs_mix;
          Alcotest.test_case "random write metafile pressure" `Quick
            test_rand_write_touches_more_metafile_blocks;
          Alcotest.test_case "think time lowers load" `Quick test_think_time_lowers_load;
          Alcotest.test_case "five-seed replay identity" `Quick test_five_seed_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_rand_stream;
          Alcotest.test_case "alloc/free balance" `Quick test_alloc_free_balance;
          Alcotest.test_case "working-set guard" `Quick test_working_set_guard;
          Alcotest.test_case "golden result digests" `Quick test_golden_digests;
        ] );
      ( "golden",
        Alcotest.test_case "table lists every subject" `Quick Golden.test_table_complete
        :: Golden.plain_cases () );
    ]
