open Wafl_workload
open Wafl_util

type config = Static of int | Dynamic
type point = { offered_level : int; result : Driver.result }
type series = { config : config; points : point list }

let config_name = function Static n -> Printf.sprintf "%d threads" n | Dynamic -> "dynamic"

let walloc_config = function
  | Static n -> Exp.wa_config ~cleaners:n ~max_cleaners:n ()
  | Dynamic -> Exp.wa_config ~cleaners:1 ~max_cleaners:4 ~dynamic:true ()

(* Offered load is swept by shrinking exponential think time; the last
   level is full tilt. *)
let think_of_level ~levels level =
  if level >= levels then 0.0 else 320.0 *. float_of_int (levels - level) /. float_of_int levels

let run ?(levels = 4) ctx =
  let spec = Exp.spec_base ~scale:(Exp.scale ctx) in
  (* Fan out across configs; the load levels within one series stay
     serial (one level of parallelism — see Wafl_util.Pool). *)
  Exp.par_map ctx
    (fun config ->
      let cfg = walloc_config config in
      let points =
        List.init levels (fun i ->
            let level = i + 1 in
            let think = think_of_level ~levels level in
            {
              offered_level = level;
              result = Exp.run ctx { spec with Driver.cfg; think_time = think };
            })
      in
      { config; points })
    [ Static 2; Static 3; Static 4; Dynamic ]

let print series =
  Printf.printf "\nFigure 9: throughput vs latency at increasing load (sequential write)\n";
  let t =
    Table.create
      ~headers:
        [ "configuration"; "load level"; "ops/s"; "mean lat (us)"; "p95 lat (us)"; "avg threads" ]
  in
  List.iter
    (fun { config; points } ->
      List.iter
        (fun { offered_level; result = r } ->
          Table.add_row t
            [
              config_name config;
              string_of_int offered_level;
              Printf.sprintf "%.0f" r.Driver.throughput;
              Table.cell_f1 (Histogram.mean r.Driver.latency);
              Table.cell_f1 (Histogram.percentile r.Driver.latency 95.0);
              Table.cell_f r.Driver.avg_active_cleaners;
            ])
        points;
      Table.add_separator t)
    series;
  Table.print t

let find series c = List.find (fun s -> s.config = c) series

let shapes series =
  let peak c =
    List.fold_left (fun a p -> Float.max a p.result.Driver.throughput) 0.0 (find series c).points
  in
  let low_lat c =
    match (find series c).points with
    | p :: _ -> Histogram.mean p.result.Driver.latency
    | [] -> infinity
  in
  let dyn = find series Dynamic in
  let monotone_tput s =
    let rec go = function
      | a :: (b :: _ as rest) ->
          b.result.Driver.throughput >= 0.85 *. a.result.Driver.throughput && go rest
      | _ -> true
    in
    go s.points
  in
  [
    Exp.shape "fig9: throughput rises with offered load (all configs)"
      (List.for_all monotone_tput series);
    Exp.shape "fig9: latency rises with offered load (dynamic)"
      (match dyn.points with
      | first :: rest ->
          let last = List.nth rest (List.length rest - 1) in
          Histogram.mean last.result.Driver.latency
          > Histogram.mean first.result.Driver.latency
      | [] -> false);
    Exp.shape "fig9: dynamic peak >= 95% of best static peak"
      (peak Dynamic >= 0.95 *. List.fold_left (fun a n -> Float.max a (peak (Static n))) 0.0 [2;3;4]);
    Exp.shape "fig9: dynamic low-load latency <= 4-thread low-load latency * 1.1"
      (low_lat Dynamic <= 1.1 *. low_lat (Static 4));
    Exp.shape "fig9: dynamic uses fewer threads at low load than at peak"
      (match dyn.points with
      | first :: rest ->
          let last = List.nth rest (List.length rest - 1) in
          first.result.Driver.avg_active_cleaners < last.result.Driver.avg_active_cleaners +. 0.5
      | [] -> false);
  ]
