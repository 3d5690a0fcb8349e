open Wafl_workload
open Wafl_util

type row = { threads : int; result : Driver.result }

let run ?(thread_counts = [ 1; 2; 3; 4; 6; 8 ]) ctx =
  let spec = Exp.spec_base ~scale:(Exp.scale ctx) in
  Exp.par_map ctx
    (fun threads ->
      let cfg = Exp.wa_config ~cleaners:threads ~max_cleaners:threads () in
      { threads; result = Exp.run ctx { spec with Driver.cfg } })
    thread_counts

let print rows =
  Printf.printf "\nFigure 5: sequential write vs number of cleaner threads\n";
  let t =
    Table.create
      ~headers:[ "cleaner threads"; "ops/s"; "ops/s/client"; "cleaner cores"; "infra cores"; "total util" ]
  in
  List.iter
    (fun { threads; result = r } ->
      Table.add_row t
        [
          string_of_int threads;
          Printf.sprintf "%.0f" r.Driver.throughput;
          Printf.sprintf "%.0f" r.Driver.throughput_per_client;
          Table.cell_f r.Driver.cores_cleaner;
          Table.cell_f r.Driver.cores_infra;
          Table.cell_f r.Driver.utilization;
        ])
    rows;
  Table.print t

let shapes rows =
  let tput n =
    match List.find_opt (fun r -> r.threads = n) rows with
    | Some r -> r.result.Driver.throughput
    | None -> 0.0
  in
  let last = List.nth rows (List.length rows - 1) in
  [
    Exp.shape "fig5: 2 threads scale well over 1 (>55% of linear)"
      (tput 2 > 1.55 *. tput 1);
    Exp.shape "fig5: 4 threads beat 2" (tput 4 > tput 2);
    Exp.shape "fig5: throughput monotonically non-degrading to saturation"
      (tput 8 > 0.9 *. tput 4);
    Exp.shape "fig5: saturation reached at high thread counts (util > 0.7)"
      (last.result.Driver.utilization > 0.7);
    Exp.shape "fig5: cleaner core usage grows with threads"
      (last.result.Driver.cores_cleaner > 2.0 *. (List.hd rows).result.Driver.cores_cleaner);
  ]
