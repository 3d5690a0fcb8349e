open Wafl_workload
open Wafl_util

type row = { name : string; result : Driver.result; gain : float }

let run ~workload ctx =
  let base_spec = { (Exp.spec_base ~scale:(Exp.scale ctx)) with Driver.workload } in
  let configs =
    [
      ("serialized baseline", Exp.wa_config ~cleaners:1 ~max_cleaners:1 ~parallel_infra:false ());
      ("parallel infrastructure", Exp.wa_config ~cleaners:1 ~max_cleaners:1 ~parallel_infra:true ());
      ("parallel cleaner threads", Exp.wa_config ~cleaners:6 ~max_cleaners:6 ~parallel_infra:false ());
      ("white alligator (both)", Exp.wa_config ~cleaners:6 ~max_cleaners:6 ~parallel_infra:true ());
    ]
  in
  (* Rows run concurrently (Exp.par_map), so the serialized baseline is
     taken from the first row's result afterwards, not via a ref inside
     the loop. *)
  let results =
    Exp.par_map ctx (fun (name, cfg) -> (name, Exp.run ctx { base_spec with Driver.cfg })) configs
  in
  let baseline =
    match results with (_, r) :: _ -> r.Driver.throughput | [] -> 0.0
  in
  List.map
    (fun (name, result) ->
      { name; result; gain = Exp.gain_pct ~baseline result.Driver.throughput })
    results

let print ~title rows =
  Printf.printf "\n%s\n" title;
  let t =
    Table.create
      ~headers:
        [
          "configuration";
          "ops/s";
          "ops/s/client";
          "gain";
          "cleaner cores";
          "infra cores";
          "walloc cores";
          "total util";
        ]
  in
  List.iter
    (fun { name; result = r; gain } ->
      Table.add_row t
        [
          name;
          Printf.sprintf "%.0f" r.Driver.throughput;
          Printf.sprintf "%.0f" r.Driver.throughput_per_client;
          Table.cell_pct gain;
          Table.cell_f r.Driver.cores_cleaner;
          Table.cell_f r.Driver.cores_infra;
          Table.cell_f (Driver.cores_write_alloc r);
          Table.cell_f r.Driver.utilization;
        ])
    rows;
  Table.print t
