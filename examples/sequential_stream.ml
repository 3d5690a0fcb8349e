(* The paper's motivating scenario: a many-core controller absorbing
   sequential write streams from Fibre-Channel clients.  Runs the same
   workload twice — once with the pre-White-Alligator serialized write
   allocator, once with the full parallel architecture — and compares.

     dune exec examples/sequential_stream.exe *)

open Wafl_workload

let describe name (r : Driver.result) =
  Printf.printf "%s\n" name;
  Printf.printf "  throughput      %8.0f ops/s  (%.0f per client)\n" r.Driver.throughput
    r.Driver.throughput_per_client;
  Printf.printf "  write bandwidth %8.1f MB/s (4 KiB blocks)\n"
    (r.Driver.throughput *. 4096.0 /. 1.0e6);
  Printf.printf "  latency         p50 %.0f us, p99 %.0f us\n"
    (Wafl_util.Histogram.percentile r.Driver.latency 50.0)
    (Wafl_util.Histogram.percentile r.Driver.latency 99.0);
  Printf.printf "  core usage      cleaners %.2f, infrastructure %.2f, clients %.2f (util %.0f%%)\n"
    r.Driver.cores_cleaner r.Driver.cores_infra r.Driver.cores_client
    (100.0 *. r.Driver.utilization);
  Printf.printf "  allocation      %d VBNs placed, %d freed, %d/%d full/partial stripes\n\n"
    r.Driver.vbns_allocated r.Driver.vbns_freed r.Driver.full_stripes r.Driver.partial_stripes

let () =
  let scale = Wafl_harness.Exp.of_env () in
  let ctx = Wafl_harness.Exp.context ~scale () in
  let spec = Wafl_harness.Exp.spec_base ~scale in
  print_endline "Sequential write streams on a 20-core simulated controller\n";
  let serialized =
    Wafl_harness.Exp.run ctx
      { spec with Driver.cfg = { Wafl_core.Walloc.serialized_config with cp_timer = Some 250_000.0 } }
  in
  describe "serialized write allocation (pre-2011 architecture)" serialized;
  let wa = Wafl_harness.Exp.run ctx spec in
  describe "White Alligator (parallel cleaners + parallel infrastructure)" wa;
  Printf.printf "speedup: %+.0f%%\n"
    ((wa.Driver.throughput /. serialized.Driver.throughput -. 1.0) *. 100.0)
