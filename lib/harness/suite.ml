module J = Wafl_obs.Json

type shapes = (string * bool) list
type columns = (string * J.t) list
type entry = { name : string; title : string; run : Exp.ctx -> shapes * columns }

(* [columns], when given, turns the figure's rows into one JSON array
   column named after the figure, one object per row. *)
let figure ?columns name title run print shapes =
  let run ctx =
    let rows = run ctx in
    print rows;
    let json row_json = [ (name, J.Arr (List.map (fun r -> J.Obj (row_json r)) rows)) ] in
    (shapes rows, Option.fold ~none:[] ~some:json columns)
  in
  { name; title; run }

let entries =
  [
    figure "fig4" "Figure 4 (sequential write, permutations)" Fig4.run Fig4.print Fig4.shapes;
    figure "fig5" "Figure 5 (cleaner-thread scaling)" Fig5.run Fig5.print Fig5.shapes;
    figure "fig6" "Figure 6 (infrastructure parallelization)" Fig6.run Fig6.print Fig6.shapes;
    figure "fig7" "Figure 7 (random write, permutations)" Fig7.run Fig7.print Fig7.shapes;
    figure "fig8" "Figure 8 (OLTP peak throughput / knee latency)" Fig8.run Fig8.print
      Fig8.shapes;
    figure "fig9" "Figure 9 (throughput vs latency curves)" Fig9.run Fig9.print Fig9.shapes;
    figure "batching" "Batched inode cleaning (SV-C)" Batching.run Batching.print
      Batching.shapes;
    figure "history" "History ablation (the SIII evolution: 2006 / 2008 / 2011)" History.run
      History.print History.shapes;
    figure "ablation/chunk" "Design ablation: bucket chunk size (SIV-C)" Ablation.run_chunk
      Ablation.print_chunk Ablation.shapes_chunk;
    figure "ablation/ranges" "Design ablation: Range-affinity instances (SIV-B2)"
      Ablation.run_ranges Ablation.print_ranges Ablation.shapes_ranges;
    figure "crossover" "Crossover sweep: sequential -> random write" Crossover.run
      Crossover.print Crossover.shapes;
    figure "overload" "Overload: noisy-neighbor tenant isolation (QoS)" Overload.run
      Overload.print Overload.shapes ~columns:(fun row ->
        [
          ("scenario", J.Str (Overload.scenario_name row.Overload.scenario));
          ("goodput_ops_s", J.Num (Overload.goodput row));
          ("shed_rate", J.Num (Overload.shed_rate row));
          ("victim_p99_us", J.Num (Overload.victim_p99 row));
        ]);
    figure "flash" "Flash media model: WAF / GC push-back vs fill, OP, streaming" Flash.run
      Flash.print Flash.shapes ~columns:(fun row ->
        [
          ("scenario", J.Str (Flash.scenario_name row.Flash.scenario));
          ("waf", J.Num (Flash.waf row));
          ("gc_stall_ms", J.Num (Flash.gc_stall_us row /. 1000.0));
          ("write_p99_us", J.Num (Flash.write_p99 row));
        ]);
  ]

let group name = match String.index_opt name '/' with Some i -> String.sub name 0 i | None -> name

let commands =
  List.fold_left
    (fun acc e -> if List.mem (group e.name) acc then acc else acc @ [ group e.name ])
    [] entries

let select command = List.filter (fun e -> group e.name = command) entries
