open Wafl_workload
open Wafl_util

type row = { parallel : bool; result : Driver.result }

let run ctx =
  let spec = Exp.spec_base ~scale:(Exp.scale ctx) in
  List.map
    (fun parallel ->
      let cfg = Exp.wa_config ~cleaners:6 ~max_cleaners:6 ~parallel_infra:parallel () in
      { parallel; result = Exp.run ctx { spec with Driver.cfg } })
    [ false; true ]

let print rows =
  Printf.printf "\nFigure 6: infrastructure parallelization (sequential write, parallel cleaners)\n";
  let t =
    Table.create
      ~headers:[ "infrastructure"; "ops/s"; "ops/s/client"; "infra cores"; "cleaner cores"; "total util" ]
  in
  List.iter
    (fun { parallel; result = r } ->
      Table.add_row t
        [
          (if parallel then "parallel" else "serialized");
          Printf.sprintf "%.0f" r.Driver.throughput;
          Printf.sprintf "%.0f" r.Driver.throughput_per_client;
          Table.cell_f r.Driver.cores_infra;
          Table.cell_f r.Driver.cores_cleaner;
          Table.cell_f r.Driver.utilization;
        ])
    rows;
  Table.print t

let shapes rows =
  match rows with
  | [ serial; parallel ] ->
      let gain =
        Exp.gain_pct ~baseline:serial.result.Driver.throughput parallel.result.Driver.throughput
      in
      [
        Exp.shape "fig6: serialized infrastructure is capped near one core"
          (serial.result.Driver.cores_infra <= 1.15);
        Exp.shape "fig6: parallel infrastructure uses more than one core"
          (parallel.result.Driver.cores_infra > 1.0);
        Exp.shape "fig6: infra parallelization raises throughput substantially (>40%)"
          (gain > 40.0);
      ]
  | _ -> [ Exp.shape "fig6: two configurations ran" false ]
