(* The figure-suite benchmark: regenerates every table and figure of the
   paper's evaluation (§V) on the simulated 20-core platform by running
   each entry of the experiment registry (Wafl_harness.Suite), and
   records per-figure host and simulated cost in BENCH_paper.json.
   Micro-benchmarks of the allocator primitives live in bench/perf.

     dune exec bench/main.exe                 # full paper scale
     WAFL_SCALE=0.25 dune exec bench/main.exe # fast smoke (quarter scale)
     WAFL_SCALE=0.5 ...                       # custom scale *)

module H = Wafl_harness
module J = Wafl_obs.Json
module Driver = Wafl_workload.Driver
module Histogram = Wafl_util.Histogram

(* One record per figure.  The whole suite shares one context, so a spec
   several figures request runs once; each figure is still charged for
   every spec it requested, whether that spec ran in this figure or an
   earlier one, so its numbers do not depend on which figures ran
   before it. *)
type record = {
  name : string;
  wall_s : float;  (** host seconds of the figure's specs *)
  virtual_us : float;  (** final virtual clocks of the figure's specs *)
  write_ops : int;  (** client writes across the figure's specs *)
  write_p50_us : float;
  write_p99_us : float;
  health_events : int;
      (** health-watchdog events across the figure's specs; healthy
          figures must report 0 *)
  columns : H.Suite.columns;
  shapes : H.Suite.shapes;
}

let sum f runs = List.fold_left (fun acc r -> acc +. f r) 0.0 runs
let virtual_us (r : H.Exp.record) = r.result.Driver.virtual_us

let health_events (r : H.Exp.record) =
  match r.result.Driver.telemetry with
  | Some tr -> List.length tr.Driver.tr_events
  | None -> 0

let measure ctx (e : H.Suite.entry) =
  Printf.printf "\n=== %s ===\n%!" e.title;
  let scope = H.Exp.scope ctx in
  let shapes, columns = e.run scope in
  let runs = H.Exp.charged scope in
  let wh = Histogram.create () in
  List.iter
    (fun (r : H.Exp.record) -> Histogram.merge_into ~dst:wh r.result.Driver.write_latency)
    runs;
  let r =
    {
      name = e.name;
      wall_s = sum (fun (r : H.Exp.record) -> r.wall_s) runs;
      virtual_us = sum virtual_us runs;
      write_ops = Histogram.count wh;
      write_p50_us = Histogram.percentile wh 50.0;
      write_p99_us = Histogram.percentile wh 99.0;
      health_events = List.fold_left (fun acc r -> acc + health_events r) 0 runs;
      columns;
      shapes;
    }
  in
  Printf.printf "  [%s: %.1fs wall, %.2fs virtual, write p50 %.0fus p99 %.0fus, %d health events]\n%!"
    r.name r.wall_s (r.virtual_us /. 1e6) r.write_p50_us r.write_p99_us r.health_events;
  r

(* BENCH_paper.json schema (all times in the named unit):
     { "schema": "wafl-bench/8",
       "scale": float,            -- WAFL_SCALE factor of THIS run
       "domains": int,            -- worker domains the harness fanned over
       "total_wall_s": float,     -- elapsed host time of the whole suite
       "total_virtual_us": float, -- simulated time of the unique specs
                                  -- the suite executed (each counted once)
       "speedup_vs_d1": float,    -- present when the file holds a 1-domain
                                  -- run at the same scale: its wall / ours
       "shapes_ok": int, "shapes_total": int,
       "figures": [ { "name": str,
                      "wall_s": float,         -- host seconds of the figure's specs
                      "virtual_us": float,     -- their final virtual clocks
                      "write_ops": int,        -- client writes across them
                      "write_p50_us": float,   -- end-to-end write latency
                      "write_p99_us": float,
                      "health_events": int,
                      "shapes": [ { "name": str, "ok": bool } ] } ],
       "runs_by_config": { "0.25/d1": { scale, domains, total_wall_s, ... },
                           "0.25/d2": { ... }, "1.00/d1": { ... } } }
   The top-level fields describe the run that last wrote the file (v1
   compatibility, and what `make bench-gate` compares); "runs_by_config"
   keeps the latest run per (scale, domains) pair so one file records
   the quarter-scale smoke, the full-scale suite, and serial-vs-parallel
   pairs whose results are byte-identical by construction (only wall
   time differs).  Figures appear in suite order; "shapes" are the
   qualitative paper-vs-measured assertions also printed in the shape
   summary.  v3 adds the per-figure end-to-end write-latency fields; v4
   adds figure-specific extra columns — the overload figure carries
     "overload": [ { "scenario": str, "goodput_ops_s": float,
                     "shed_rate": float, "victim_p99_us": float } ]
   with one row per scenario; v5 adds the flash media-model figure with
     "flash": [ { "scenario": str, "waf": float, "gc_stall_ms": float,
                  "write_p99_us": float } ]
   per scenario; v6 adds "domains", "speedup_vs_d1" and renames
   "runs_by_scale" to the (scale, domains)-keyed "runs_by_config" —
   legacy v2..v5 entries are carried over under "SCALE/d1"; v7 runs the
   whole suite with fleet telemetry attached (observe-only, so every
   number is unchanged) and adds the per-figure "health_events" count —
   0 on every healthy figure.  v8 charges each figure for every spec it
   requested: a figure's "wall_s" and "virtual_us" are sums over its
   specs, including those an earlier figure already ran (fig6 is fig4's
   rows 3-4), where v7 counted only the runs the figure executed itself
   and recorded fig6 at 0 s.  Older files (without these fields) are
   still read for carry-over. *)
let run_record ~ctx ~scale ~domains ~total_wall records =
  let figs =
    List.map
      (fun r ->
        J.Obj
          ([
             ("name", J.Str r.name);
             ("wall_s", J.Num r.wall_s);
             ("virtual_us", J.Num r.virtual_us);
             ("write_ops", J.Num (float_of_int r.write_ops));
             ("write_p50_us", J.Num r.write_p50_us);
             ("write_p99_us", J.Num r.write_p99_us);
             ("health_events", J.Num (float_of_int r.health_events));
           ]
          @ r.columns
          @ [
              ( "shapes",
                J.Arr
                  (List.map
                     (fun (n, ok) -> J.Obj [ ("name", J.Str n); ("ok", J.Bool ok) ])
                     r.shapes) );
            ]))
      records
  in
  let shapes = List.concat_map (fun r -> r.shapes) records in
  [
    ("scale", J.Num scale);
    ("domains", J.Num (float_of_int domains));
    ("total_wall_s", J.Num total_wall);
    ("total_virtual_us", J.Num (sum virtual_us (H.Exp.executed ctx)));
    ("shapes_ok", J.Num (float_of_int (List.length (List.filter snd shapes))));
    ("shapes_total", J.Num (float_of_int (List.length shapes)));
    ("figures", J.Arr figs);
  ]

(* Latest run per (scale, domains) config from an existing file, minus
   the key being rewritten; a v1 file (or no file) contributes nothing.
   Pre-v6 files carried one run per scale in "runs_by_scale" — those
   runs were all single-domain, so they carry over as "SCALE/d1". *)
let previous_runs ~except path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic -> (
      let len = in_channel_length ic in
      let body = really_input_string ic len in
      close_in ic;
      match J.of_string body with
      | Ok doc -> (
          let runs =
            match (J.member "schema" doc, J.member "runs_by_config" doc) with
            | Some (J.Str ("wafl-bench/6" | "wafl-bench/7" | "wafl-bench/8")), Some (J.Obj runs)
              -> runs
            | Some (J.Str ("wafl-bench/2" | "wafl-bench/3" | "wafl-bench/4" | "wafl-bench/5")), _
              -> (
                match J.member "runs_by_scale" doc with
                | Some (J.Obj runs) -> List.map (fun (k, v) -> (k ^ "/d1", v)) runs
                | _ -> [])
            | _ -> []
          in
          List.filter (fun (k, _) -> k <> except) runs)
      | _ -> [])

let config_key ~scale ~domains = Printf.sprintf "%.2f/d%d" scale domains

let write_json this_run ~scale ~domains ~total_wall path =
  let key = config_key ~scale ~domains in
  let prev = previous_runs ~except:key path in
  (* Like-for-like speedup: the stored single-domain run at the same
     scale, if the file has one (this run itself when domains = 1). *)
  let speedup =
    if domains = 1 then []
    else
      match List.assoc_opt (config_key ~scale ~domains:1) prev with
      | Some base -> (
          match J.member "total_wall_s" base with
          | Some (J.Num base_wall) when total_wall > 0.0 ->
              [ ("speedup_vs_d1", J.Num (base_wall /. total_wall)) ]
          | _ -> [])
      | None -> []
  in
  let this_run = this_run @ speedup in
  let runs = prev @ [ (key, J.Obj this_run) ] in
  let runs = List.sort (fun (a, _) (b, _) -> compare a b) runs in
  let doc =
    J.Obj ((("schema", J.Str "wafl-bench/8") :: this_run) @ [ ("runs_by_config", J.Obj runs) ])
  in
  let oc = open_out path in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  (match speedup with
  | [ (_, J.Num s) ] -> Printf.printf "speedup vs 1-domain run at scale %.2f: %.2fx\n%!" scale s
  | _ -> ());
  Printf.printf "wrote %s\n%!" path

(* WAFL_BENCH_ONLY="fig4,history" restricts the suite to the named
   figures — the fast subset `make check` runs as its regression gate. *)
let want =
  match Sys.getenv_opt "WAFL_BENCH_ONLY" with
  | None | Some "" -> fun _ -> true
  | Some s ->
      let names = String.split_on_char ',' s |> List.map String.trim in
      fun name -> List.mem name names

let () =
  let scale = H.Exp.of_env () in
  (* Fan independent runs within each figure over the host's cores
     (WAFL_DOMAINS overrides).  Results are byte-identical at any
     count — only wall time changes — so the recorded domain count
     matters only for like-for-like wall-time comparison.  Fleet
     telemetry is attached to every run: observe-only (the telemetry
     tests pin bit-identity), and the per-figure health-event counts
     land in BENCH_paper.json. *)
  let domains = Wafl_util.Pool.default_domains () in
  let ctx =
    H.Exp.context ~scale ~domains ~telemetry:Driver.default_telemetry ~clock:Unix.gettimeofday
      ()
  in
  Printf.printf "WAFL White Alligator reproduction benchmark harness (scale %.2f, %d domain%s)\n"
    scale domains
    (if domains = 1 then "" else "s");
  let t0 = Unix.gettimeofday () in
  let records =
    List.filter_map (fun (e : H.Suite.entry) -> if want e.name then Some (measure ctx e) else None)
      H.Suite.entries
  in
  Printf.printf "\n=== Shape summary (paper-vs-measured, qualitative) ===\n%!";
  let shapes = List.concat_map (fun r -> r.shapes) records in
  H.Exp.print_shapes shapes;
  let missed = List.filter (fun (_, ok) -> not ok) shapes in
  Printf.printf "\n%d/%d shapes reproduced\n%!"
    (List.length shapes - List.length missed)
    (List.length shapes);
  let total_wall = Unix.gettimeofday () -. t0 in
  Printf.printf "\ntotal wall time: %.1fs\n" total_wall;
  let out = Option.value ~default:"BENCH_paper.json" (Sys.getenv_opt "WAFL_BENCH_OUT") in
  write_json (run_record ~ctx ~scale ~domains ~total_wall records) ~scale ~domains ~total_wall out
