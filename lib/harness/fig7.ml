open Wafl_workload

let workload scale =
  Driver.Rand_write { file_blocks = max 2048 (int_of_float (16384.0 *. scale)) }

let run ctx = Perms.run ~workload:(workload (Exp.scale ctx)) ctx

let print rows =
  Perms.print ~title:"Figure 7: random write, parallelization permutations" rows

let shapes rows =
  match rows with
  | [ base; infra_only; cleaners_only; both ] ->
      ignore base;
      [
        Exp.shape "fig7: both-parallel gain is moderate (25..90%)"
          (both.Perms.gain > 25.0 && both.Perms.gain < 90.0);
        Exp.shape "fig7: gains much smaller than sequential write"
          (both.Perms.gain < 120.0);
        Exp.shape "fig7: infra parallelization matters for random write"
          (infra_only.Perms.gain > 5.0 || both.Perms.gain -. cleaners_only.Perms.gain > 10.0);
        Exp.shape "fig7: random write touches far more metafile blocks per op"
          (let per_op r =
             float_of_int r.Perms.result.Driver.metafile_blocks_touched
             /. float_of_int (max 1 r.Perms.result.Driver.writes)
           in
           per_op both > 0.2);
        Exp.shape "fig7: system saturates at peak (util > 0.85)"
          (both.Perms.result.Driver.utilization > 0.85);
      ]
  | _ -> [ Exp.shape "fig7: four permutations ran" false ]
