(* Checked reads of an engine's metrics registry, for the suites.  Tests
   read a component's counts by the names it registers, as Report.perf,
   the run's measurement window and the rollup do.  The registry reads an
   unknown name as 0, so a misspelt name would let [check int 0 ...]
   pass without checking anything: these readers fail the test instead. *)

open Wafl_sim
module Histogram = Wafl_util.Histogram

(* A counter, pushed or pulled, summed over the engine's components. *)
let count eng name =
  match List.assoc_opt name (Metrics.counters (Engine.metrics eng)) with
  | Some v -> int_of_float v
  | None -> Alcotest.failf "counter %S is not registered" name

let histo eng name =
  match Metrics.histo (Engine.metrics eng) name with
  | Some h -> h
  | None -> Alcotest.failf "histogram %S is not registered" name

(* Samples a histogram holds, and their exact sum for integer samples. *)
let histo_count eng name = Histogram.count (histo eng name)
let histo_sum eng name = int_of_float (Histogram.sum (histo eng name))

(* The sample count of every histogram named [prefix ^ suffix], as
   [(suffix, count)] in name order: per-kind counts whose kinds register
   on first use. *)
let histo_counts eng ~prefix =
  List.filter_map
    (fun (name, h) ->
      if String.starts_with ~prefix name then
        let n = String.length prefix in
        Some (String.sub name n (String.length name - n), Histogram.count h)
      else None)
    (Metrics.histograms (Engine.metrics eng))
