open Wafl_workload
open Wafl_util

type row = { era : string; result : Driver.result; gain : float }

let configs =
  [
    ( "2006 serial affinity",
      { Wafl_core.Walloc.serialized_config with serial_cleaning = true } );
    ("2008 single cleaner thread", Wafl_core.Walloc.serialized_config);
    ("2011 white alligator", Exp.wa_config ~cleaners:6 ~max_cleaners:6 ());
  ]

let run ctx =
  let spec = Exp.spec_base ~scale:(Exp.scale ctx) in
  (* Rows run concurrently (Exp.par_map); the 2003 baseline is the first
     row's result, read back after the sweep. *)
  let results =
    Exp.par_map ctx
      (fun (era, cfg) ->
        let cfg = { cfg with Wafl_core.Walloc.cp_timer = Some 250_000.0 } in
        (era, Exp.run ctx { spec with Driver.cfg }))
      configs
  in
  let baseline =
    match results with (_, r) :: _ -> r.Driver.throughput | [] -> 0.0
  in
  List.map
    (fun (era, result) ->
      { era; result; gain = Exp.gain_pct ~baseline result.Driver.throughput })
    results

let print rows =
  Printf.printf "\nHistory ablation: three generations of WAFL write allocation (seq write)\n";
  let t =
    Table.create
      ~headers:[ "era"; "ops/s"; "gain"; "mean lat (us)"; "p99 lat (us)"; "total util" ]
  in
  List.iter
    (fun { era; result = r; gain } ->
      Table.add_row t
        [
          era;
          Printf.sprintf "%.0f" r.Driver.throughput;
          Table.cell_pct gain;
          Table.cell_f1 (Histogram.mean r.Driver.latency);
          Table.cell_f1 (Histogram.percentile r.Driver.latency 99.0);
          Table.cell_f r.Driver.utilization;
        ])
    rows;
  Table.print t

let shapes rows =
  match rows with
  | [ serial; single; wa ] ->
      [
        Exp.shape "history: each generation improves throughput"
          (single.result.Driver.throughput > serial.result.Driver.throughput
          && wa.result.Driver.throughput > single.result.Driver.throughput);
        (* Mean latency, not a percentile: the serial era's pain is rare
           but enormous client stalls behind Serial-affinity cleaning,
           which sit beyond p99 at these op counts. *)
        Exp.shape "history: serial affinity inflicts the worst mean latency"
          (Histogram.mean serial.result.Driver.latency
          > 2.0 *. Histogram.mean wa.result.Driver.latency);
        Exp.shape "history: white alligator >2x the 2006 design"
          (wa.result.Driver.throughput > 2.0 *. serial.result.Driver.throughput);
      ]
  | _ -> [ Exp.shape "history: three eras ran" false ]
