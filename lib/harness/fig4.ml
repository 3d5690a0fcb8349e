open Wafl_workload

let workload scale =
  Driver.Seq_write { file_blocks = max 2048 (int_of_float (16384.0 *. scale)) }

let run ctx = Perms.run ~workload:(workload (Exp.scale ctx)) ctx

let print rows =
  Perms.print ~title:"Figure 4: sequential write, parallelization permutations" rows

let shapes rows =
  match rows with
  | [ base; infra_only; cleaners_only; both ] ->
      [
        Exp.shape "fig4: infra-only gain is small (0..25%)"
          (infra_only.Perms.gain >= -2.0 && infra_only.Perms.gain <= 25.0);
        Exp.shape "fig4: cleaners-only gain is large (>50%)" (cleaners_only.Perms.gain > 50.0);
        Exp.shape "fig4: both >> each alone (>150%)"
          (both.Perms.gain > 150.0
          && both.Perms.gain > cleaners_only.Perms.gain
          && both.Perms.gain > infra_only.Perms.gain);
        Exp.shape "fig4: seq write is cleaner-bound (cleaners-only > infra-only)"
          (cleaners_only.Perms.gain > infra_only.Perms.gain);
        Exp.shape "fig4: full config uses several walloc cores (>3)"
          (Driver.cores_write_alloc both.Perms.result > 3.0);
        Exp.shape "fig4: cleaner cores exceed infra cores at peak"
          (both.Perms.result.Driver.cores_cleaner > both.Perms.result.Driver.cores_infra);
        Exp.shape "fig4: system approaches saturation at peak (util > 0.7)"
          (both.Perms.result.Driver.utilization > 0.7);
        Exp.shape "fig4: baseline leaves most cores idle (util < 0.45)"
          (base.Perms.result.Driver.utilization < 0.45);
      ]
  | _ -> [ Exp.shape "fig4: four permutations ran" false ]
