open Wafl_workload
open Wafl_util

type config = Static of int | Dynamic

type row = { config : config; peak : Driver.result; knee : Driver.result }

let config_name = function Static n -> Printf.sprintf "%d static" n | Dynamic -> "dynamic"

let oltp scale = Driver.Oltp { file_blocks = max 2048 (int_of_float (16384.0 *. scale)); read_fraction = 0.67 }

let walloc_config = function
  | Static n -> Exp.wa_config ~cleaners:n ~max_cleaners:n ()
  | Dynamic -> Exp.wa_config ~cleaners:1 ~max_cleaners:4 ~dynamic:true ()

let run ctx =
  let scale = Exp.scale ctx in
  (* A small NVRAM puts peak load in the back-to-back-CP regime where the
     cleaner-thread count governs both throughput and latency. *)
  (* A controller-sized read cache keeps the OLTP hot set resident, so
     knee latency reflects CP interference rather than read misses. *)
  let spec =
    {
      (Exp.spec_base ~scale) with
      Driver.workload = oltp scale;
      nvlog_half = 2048;
      cache_blocks = 1 lsl 20;
    }
  in
  let configs = [ Static 1; Static 2; Static 3; Static 4; Dynamic ] in
  (* Peak: closed loop at full tilt. *)
  let peaks =
    Exp.par_map ctx (fun c -> (c, Exp.run ctx { spec with Driver.cfg = walloc_config c })) configs
  in
  let best_peak =
    List.fold_left (fun acc (_, r) -> Float.max acc r.Driver.throughput) 0.0 peaks
  in
  (* Knee: identical offered load for every configuration, placed at the
     bend of the single-thread scalability curve — "beyond which
     increases in load cause disproportional increases in latency".
     This is where one cleaner thread starts failing to keep up while
     two or more still have headroom. *)
  let target = 0.78 *. best_peak in
  let think =
    Float.max 20.0 ((float_of_int spec.Driver.clients /. target *. 1_000_000.0) -. 60.0)
  in
  Exp.par_map ctx
    (fun (c, peak) ->
      let knee =
        Exp.run ctx { spec with Driver.cfg = walloc_config c; think_time = think }
      in
      { config = c; peak; knee })
    peaks

let print rows =
  Printf.printf "\nFigure 8: OLTP — peak throughput and off-peak (knee) latency vs cleaner threads\n";
  let t =
    Table.create
      ~headers:
        [
          "cleaner threads";
          "peak ops/s";
          "peak ops/s/client";
          "knee mean lat (us)";
          "knee p95 (us)";
          "avg active threads";
        ]
  in
  List.iter
    (fun { config; peak; knee } ->
      Table.add_row t
        [
          config_name config;
          Printf.sprintf "%.0f" peak.Driver.throughput;
          Printf.sprintf "%.0f" peak.Driver.throughput_per_client;
          Table.cell_f1 (Histogram.mean knee.Driver.latency);
          Table.cell_f1 (Histogram.percentile knee.Driver.latency 95.0);
          Table.cell_f knee.Driver.avg_active_cleaners;
        ])
    rows;
  Table.print t

let find rows c = List.find (fun r -> r.config = c) rows

let shapes rows =
  let peak c = (find rows c).peak.Driver.throughput in
  let lat c = Histogram.mean (find rows c).knee.Driver.latency in
  let dynamic = find rows Dynamic in
  let best_static_peak = List.fold_left (fun a n -> Float.max a (peak (Static n))) 0.0 [1;2;3;4] in
  let best_static_lat =
    List.fold_left (fun a n -> Float.min a (lat (Static n))) infinity [ 1; 2; 3; 4 ]
  in
  [
    Exp.shape "fig8: a second thread raises peak throughput" (peak (Static 2) > peak (Static 1));
    Exp.shape "fig8: a second thread lowers knee latency" (lat (Static 2) < lat (Static 1));
    Exp.shape "fig8: >2 threads do not keep improving peak (within 5%)"
      (peak (Static 4) < 1.05 *. peak (Static 2));
    Exp.shape "fig8: dynamic ~ matches best static peak (>= 95%)"
      (dynamic.peak.Driver.throughput >= 0.95 *. best_static_peak);
    Exp.shape "fig8: dynamic ~ matches best static knee latency (<= 115%)"
      (Histogram.mean dynamic.knee.Driver.latency <= 1.15 *. best_static_lat);
    Exp.shape "fig8: dynamic uses few threads off-peak (< 2.5 avg)"
      (dynamic.knee.Driver.avg_active_cleaners < 2.5);
  ]
