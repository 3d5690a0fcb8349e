open Wafl_workload
open Wafl_util

type row = { random_fraction : float; result : Driver.result }

let run ctx =
  let scale = Exp.scale ctx in
  let file_blocks = max 2048 (int_of_float (16384.0 *. scale)) in
  let spec = Exp.spec_base ~scale in
  Exp.par_map ctx
    (fun random_fraction ->
      let workload = Driver.Mixed_write { file_blocks; random_fraction } in
      {
        random_fraction;
        result =
          Exp.run ctx
            { spec with Driver.workload; cfg = Exp.wa_config ~cleaners:6 ~max_cleaners:6 () };
      })
    [ 0.0; 0.25; 0.5; 0.75; 1.0 ]

(* Per-operation virtual µs of each component. *)
let per_op_us cores (r : Driver.result) = cores *. 1e6 /. Float.max 1.0 r.Driver.throughput

let print rows =
  Printf.printf
    "\nCrossover sweep: sequential -> random write (White Alligator, 6 cleaners)\n";
  let t =
    Table.create
      ~headers:
        [
          "random fraction";
          "ops/s";
          "cleaner us/op";
          "infra us/op";
          "metafile touches/op";
          "total util";
        ]
  in
  List.iter
    (fun { random_fraction; result = r } ->
      Table.add_row t
        [
          Printf.sprintf "%.2f" random_fraction;
          Printf.sprintf "%.0f" r.Driver.throughput;
          Table.cell_f (per_op_us r.Driver.cores_cleaner r);
          Table.cell_f (per_op_us r.Driver.cores_infra r);
          Printf.sprintf "%.3f"
            (float_of_int r.Driver.metafile_blocks_touched
            /. float_of_int (max 1 r.Driver.writes));
          Table.cell_f r.Driver.utilization;
        ])
    rows;
  Table.print t

let shapes rows =
  let infra_us f =
    let r = List.find (fun x -> x.random_fraction = f) rows in
    per_op_us r.result.Driver.cores_infra r.result
  in
  let cleaner_us f =
    let r = List.find (fun x -> x.random_fraction = f) rows in
    per_op_us r.result.Driver.cores_cleaner r.result
  in
  let touches f =
    let r = List.find (fun x -> x.random_fraction = f) rows in
    float_of_int r.result.Driver.metafile_blocks_touched
    /. float_of_int (max 1 r.result.Driver.writes)
  in
  [
    Exp.shape "crossover: infra cost per op grows with randomness"
      (infra_us 1.0 > 1.5 *. infra_us 0.0);
    Exp.shape "crossover: cleaner cost per op roughly flat (within 35%)"
      (Float.abs (cleaner_us 1.0 -. cleaner_us 0.0) < 0.35 *. cleaner_us 0.0);
    Exp.shape "crossover: metafile touches grow monotonically"
      (touches 0.25 < touches 0.75 && touches 0.0 < touches 1.0);
    Exp.shape "crossover: fully random write is infra-dominated"
      (infra_us 1.0 > cleaner_us 1.0);
    Exp.shape "crossover: sequential write is cleaner-dominated"
      (cleaner_us 0.0 > infra_us 0.0);
  ]
