open Wafl_workload
open Wafl_util

type chunk_row = { chunk : int; result : Driver.result }
type ranges_row = { ranges : int; result : Driver.result }

let run_chunk ctx =
  let scale = Exp.scale ctx in
  (* Smaller working set than the figure experiments: one-VBN buckets do
     twenty times the infrastructure message traffic, and the comparison
     between configurations is what matters here. *)
  let spec =
    {
      (Exp.spec_base ~scale) with
      Driver.clients = 32;
      volumes = 1;
      workload = Driver.Seq_write { file_blocks = max 1024 (int_of_float (4096.0 *. scale)) };
      warmup = Float.max 50_000.0 (150_000.0 *. scale);
      measure = Float.max 100_000.0 (400_000.0 *. scale);
    }
  in
  Exp.par_map ctx
    (fun chunk ->
      let cfg = { (Exp.wa_config ~cleaners:6 ~max_cleaners:6 ()) with Wafl_core.Walloc.chunk } in
      { chunk; result = Exp.run ctx { spec with Driver.cfg } })
    [ 1; 8; 64; 128; 256 ]

let print_chunk rows =
  Printf.printf
    "\nAblation: bucket chunk size (SIV-C: a bucket of one VBN vs chunked buckets)\n";
  let t =
    Table.create
      ~headers:
        [
          "chunk (VBNs)";
          "ops/s";
          "infra cores";
          "infra msgs";
          "read contiguity";
          "full/partial stripes";
        ]
  in
  List.iter
    (fun { chunk; result = r } ->
      Table.add_row t
        [
          string_of_int chunk;
          Printf.sprintf "%.0f" r.Driver.throughput;
          Table.cell_f r.Driver.cores_infra;
          Table.cell_i r.Driver.infra_messages;
          Table.cell_f1 r.Driver.read_contiguity;
          Printf.sprintf "%d/%d" r.Driver.full_stripes r.Driver.partial_stripes;
        ])
    rows;
  Table.print t

let find_chunk rows c = List.find (fun r -> r.chunk = c) rows

let shapes_chunk rows =
  let tput c = (find_chunk rows c).result.Driver.throughput in
  let contig c = (find_chunk rows c).result.Driver.read_contiguity in
  let msgs c = (find_chunk rows c).result.Driver.infra_messages in
  (* Per-operation infrastructure cost, which is what amortization buys. *)
  let infra_us c =
    let r = (find_chunk rows c).result in
    r.Driver.cores_infra *. 1e6 /. Float.max 1.0 r.Driver.throughput
  in
  [
    Exp.shape "ablation/chunk: one-VBN buckets measurably slower"
      (tput 1 < 0.95 *. tput 64);
    Exp.shape "ablation/chunk: one-VBN buckets burn several times the infra CPU per op"
      (infra_us 1 > 3.0 *. infra_us 64);
    Exp.shape "ablation/chunk: chunked buckets amortize infrastructure messages"
      (msgs 64 * 4 < msgs 1);
    Exp.shape "ablation/chunk: contiguity grows with chunk size"
      (contig 64 > 4.0 *. Float.max 1.0 (contig 1));
    Exp.shape "ablation/chunk: returns diminish past 128"
      (tput 256 < 1.15 *. tput 128);
  ]

let run_ranges ctx =
  let scale = Exp.scale ctx in
  let spec =
    {
      (Exp.spec_base ~scale) with
      Driver.workload = Driver.Rand_write { file_blocks = max 2048 (int_of_float (16384.0 *. scale)) };
    }
  in
  Exp.par_map ctx
    (fun ranges ->
      let cfg = { (Exp.wa_config ~cleaners:6 ~max_cleaners:6 ()) with Wafl_core.Walloc.ranges } in
      { ranges; result = Exp.run ctx { spec with Driver.cfg } })
    [ 1; 2; 4; 8; 16 ]

let print_ranges rows =
  Printf.printf "\nAblation: Range-affinity instances (random write; SIV-B2)\n";
  let t =
    Table.create ~headers:[ "range affinities"; "ops/s"; "infra cores"; "total util" ]
  in
  List.iter
    (fun { ranges; result = r } ->
      Table.add_row t
        [
          string_of_int ranges;
          Printf.sprintf "%.0f" r.Driver.throughput;
          Table.cell_f r.Driver.cores_infra;
          Table.cell_f r.Driver.utilization;
        ])
    rows;
  Table.print t

let shapes_ranges rows =
  let tput n = (List.find (fun r -> r.ranges = n) rows).result.Driver.throughput in
  [
    Exp.shape "ablation/ranges: one range ~ serialized infrastructure"
      (tput 1 < tput 8);
    Exp.shape "ablation/ranges: a handful of ranges suffices"
      (tput 16 < 1.2 *. tput 8);
  ]
