open Wafl_workload
open Wafl_util

type row = { batching : bool; result : Driver.result }

let run ctx =
  let scale = Exp.scale ctx in
  let files = max 8 (int_of_float (48.0 *. scale)) in
  let spec =
    {
      (Exp.spec_base ~scale) with
      Driver.workload = Driver.Nfs_mix { files_per_client = files; file_blocks = 64 };
      nvlog_half = 4096;
    }
  in
  Exp.par_map ctx
    (fun batching ->
      let cfg = Exp.wa_config ~cleaners:4 ~batching () in
      { batching; result = Exp.run ctx { spec with Driver.cfg } })
    [ false; true ]

let print rows =
  Printf.printf "\nBatched inode cleaning (NFS mix, many inodes with few dirty buffers; SV-C)\n";
  let t =
    Table.create
      ~headers:
        [
          "batching";
          "ops/s";
          "mean lat (us)";
          "cleaner msgs";
          "inodes cleaned";
          "msgs per inode";
        ]
  in
  List.iter
    (fun { batching; result = r } ->
      Table.add_row t
        [
          (if batching then "enabled" else "disabled");
          Printf.sprintf "%.0f" r.Driver.throughput;
          Table.cell_f1 (Histogram.mean r.Driver.latency);
          Table.cell_i r.Driver.cleaner_messages;
          Table.cell_i r.Driver.buffers_cleaned;
          Printf.sprintf "%.3f"
            (float_of_int r.Driver.cleaner_messages /. float_of_int (max 1 r.Driver.buffers_cleaned));
        ])
    rows;
  Table.print t

let shapes rows =
  match rows with
  | [ off; on ] ->
      let tput_gain = Exp.gain_pct ~baseline:off.result.Driver.throughput on.result.Driver.throughput in
      [
        Exp.shape "batching: fewer cleaner messages for the same work"
          (on.result.Driver.cleaner_messages * 2 < off.result.Driver.cleaner_messages);
        Exp.shape "batching: throughput gain small and non-negative (-1..15%)"
          (tput_gain > -1.0 && tput_gain < 15.0);
        Exp.shape "batching: latency does not regress"
          (Histogram.mean on.result.Driver.latency
          <= 1.02 *. Histogram.mean off.result.Driver.latency);
      ]
  | _ -> [ Exp.shape "batching: two configurations ran" false ]
