(* Bench regression gate: compare a fresh benchmark run against the
   committed BENCH_paper.json baseline, per figure.

     bench_gate BASELINE.json FRESH.json

   A figure regresses when its fresh wall time exceeds the baseline's by
   more than 15% plus an absolute slack of 2 s, or when its end-to-end
   write p99 exceeds the baseline's by more than 25% plus a 100 us
   jitter floor.  Wall time drifts with the host; the p99 is a virtual-
   time measurement, so it is deterministic at a fixed (scale, seed) —
   the generous slack only absorbs intentional model recalibrations,
   while a genuine latency regression (a serialization bug, a lost
   parallelism path) shows up as a multiple.  Figures lacking the p99
   field on either side (pre-v3 baselines, figures with no writes) skip
   the latency gate.  The absolute slack is a
   jitter floor: on a shared single-core host a ~5 s figure varies by
   over 30% run-to-run, so short figures are effectively gated by the
   floor while the 15% rule bites on the long ones, where real
   regressions show.  A figure's wall time is the host time of every
   spec it requested, including specs an earlier figure already ran
   (wafl-bench/8), so it is the same in a fast subset as in the full
   suite.  Only figures present in both files are compared, so a
   fast-subset run gates just the figures it measured.  Exit status 1 on any regression.

   Wall time scales with the worker-domain count (results don't — runs
   are byte-identical at any count), so the comparison must be
   like-for-like: when the fresh run's "domains" differs from the
   baseline's top-level run, the gate looks for a baseline
   "runs_by_config" entry at the fresh (scale, domains) pair and
   compares against that.  With no matching entry there is nothing
   honest to compare — the gate prints a notice and exits 0 rather
   than fail builds on the first run at a new core count. *)

module J = Wafl_obs.Json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt

let load path =
  let ic = try open_in path with Sys_error e -> fail "bench_gate: %s" e in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match J.of_string body with
  | Ok doc -> doc
  | Error e -> fail "bench_gate: %s: %s" path e

let figures doc path =
  match J.member "figures" doc with
  | Some (J.Arr figs) ->
      List.filter_map
        (fun f ->
          match (J.member "name" f, J.member "wall_s" f) with
          | Some (J.Str n), Some (J.Num w) ->
              let p99 =
                match J.member "write_p99_us" f with
                | Some (J.Num p) when p > 0.0 -> Some p
                | _ -> None
              in
              Some (n, (w, p99))
          | _ -> None)
        figs
  | _ -> fail "bench_gate: %s: no figures array" path

let scale_of doc path =
  match J.member "scale" doc with
  | Some (J.Num s) -> s
  | _ -> fail "bench_gate: %s: no scale" path

(* Pre-v6 files have no "domains" field; those runs were single-domain. *)
let domains_of doc =
  match J.member "domains" doc with Some (J.Num d) -> int_of_float d | _ -> 1

let () =
  let baseline_path, fresh_path =
    match Sys.argv with
    | [| _; b; f |] -> (b, f)
    | _ -> fail "usage: bench_gate BASELINE.json FRESH.json"
  in
  let baseline = load baseline_path and fresh = load fresh_path in
  let bs = scale_of baseline baseline_path and fs = scale_of fresh fresh_path in
  if bs <> fs then
    fail "bench_gate: scale mismatch (baseline %.2f vs fresh %.2f): not comparable" bs fs;
  let fd = domains_of fresh in
  let baseline =
    if domains_of baseline = fd then baseline
    else begin
      let key = Printf.sprintf "%.2f/d%d" fs fd in
      match J.member "runs_by_config" baseline with
      | Some (J.Obj runs) when List.mem_assoc key runs ->
          Printf.printf "bench gate: baseline is %d-domain, fresh is %d-domain; comparing against baseline entry %s\n"
            (domains_of baseline) fd key;
          List.assoc key runs
      | _ ->
          Printf.printf
            "bench gate: skipped — baseline has no %d-domain run at scale %.2f (wall time is not comparable across domain counts)\n"
            fd fs;
          exit 0
    end
  in
  let base_figs = figures baseline baseline_path in
  let fresh_figs = figures fresh fresh_path in
  let slack_abs = 2.0 and slack_rel = 1.15 in
  let p99_floor_us = 100.0 and p99_rel = 1.25 in
  let regressed = ref [] in
  let compared = ref 0 in
  List.iter
    (fun (name, (fw, fp99)) ->
      match List.assoc_opt name base_figs with
      | None -> Printf.printf "  %-18s %6.1fs  (new figure, no baseline)\n" name fw
      | Some (bw, bp99) ->
          incr compared;
          let limit = (bw *. slack_rel) +. slack_abs in
          let wall_bad = fw > limit in
          let p99_report, p99_bad =
            match (bp99, fp99) with
            | Some b, Some f ->
                let plimit = (b *. p99_rel) +. p99_floor_us in
                ( Printf.sprintf ", p99 %.0fus vs %.0fus (limit %.0fus)" f b plimit,
                  f > plimit )
            | _ -> ("", false)
          in
          let status =
            if wall_bad && p99_bad then "REGRESSED (wall, p99)"
            else if wall_bad then "REGRESSED (wall)"
            else if p99_bad then "REGRESSED (p99)"
            else "ok"
          in
          if wall_bad || p99_bad then regressed := name :: !regressed;
          Printf.printf "  %-18s %6.1fs vs %6.1fs baseline (limit %.1fs)%s  [%s]\n" name fw bw
            limit p99_report status)
    fresh_figs;
  if !compared = 0 then fail "bench_gate: no common figures between %s and %s" baseline_path fresh_path;
  match !regressed with
  | [] -> Printf.printf "bench gate OK: %d figure(s) within limits\n" !compared
  | l ->
      Printf.printf
        "bench gate FAILED: %s regressed (wall >15%% +2s slack, or write p99 >25%% +100us) vs %s\n"
        (String.concat ", " (List.rev l))
        baseline_path;
      exit 1
