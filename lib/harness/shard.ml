open Wafl_sim
open Wafl_fs
module Geometry = Wafl_storage.Geometry

type row = { shard : int; ops : int; cps : int; util : float }

type outcome = {
  rows : row list;
  epochs : int;
  fleet_reported : int;
  horizon : float;
  telemetry : Wafl_obs.Rollup.snapshot;
      (* per-shard rollup snapshots merged deterministically (volume ids
         namespaced by shard) *)
}

(* Per-shard rollup config: fine windows so even the scaled-down smoke
   run seals a few, with the ring budget sized to match. *)
let rollup_config = { Wafl_obs.Rollup.window_us = 2_000.0; windows = 16; vol_budget_bytes = 8192 }

(* Cross-partition delivery bound; the global CP epoch is a coarse
   multiple of it, as the real barriers are. *)
let lookahead = 1_000.0
let epoch_us = 6_000.0
let clients_per_shard = 6
let files_per_shard = 4
let fbn_space = 700

(* Same small-geometry stack as the crash harness: 2 groups x (3 + 1)
   small drives per shard. *)
let geometry () =
  Geometry.create ~drive_blocks:8192 ~aa_stripes:512 ~raid_groups:[ (3, 1); (3, 1) ] ()

type shard_state = {
  walloc : Wafl_core.Walloc.t;
  ops_done : int ref; (* mutated only by this shard's fibers *)
  cp : Wafl_core.Cp.t;
  roll : Wafl_obs.Rollup.t; (* fed only by this shard's fibers *)
}

let setup part sid ~seed =
  let eng = Partition.engine part sid in
  (* Each shard's components publish into its partition engine's own
     registry, which its rollup reads. *)
  let agg = Aggregate.create eng ~cost:Cost.default ~geometry:(geometry ()) ~nvlog_half:2048 () in
  (* CPs come only from the global epoch barrier (and log-half-full
     self-defense), so per-shard CP counts expose the coupling. *)
  let cfg =
    { (Wafl_core.Walloc.default_config) with Wafl_core.Walloc.cleaner_threads = 2; cp_timer = None }
  in
  let walloc = Wafl_core.Walloc.create agg cfg in
  let ops_done = ref 0 in
  Metrics.pull_counter (Engine.metrics eng) "ops" (fun () -> float_of_int !ops_done);
  let roll = Wafl_obs.Rollup.create ~config:rollup_config eng in
  Wafl_obs.Rollup.watch roll
    ~counters:[ "ops"; "cp.count"; "cp.b2b"; "nvlog.stall_us" ]
    ~gauges:[] ~histograms:[];
  ignore
    (Engine.spawn eng ~label:"client" (fun () ->
         let vol = Aggregate.create_volume agg ~vvbn_space:65536 in
         let vid = Volume.id vol in
         Wafl_core.Walloc.register_volume walloc vol;
         let files =
           Array.init files_per_shard (fun _ -> File.id (Aggregate.create_file agg ~vol:vid))
         in
         for c = 0 to clients_per_shard - 1 do
           let rng =
             Wafl_util.Rng.create ~seed:(seed lxor (((sid * 31) + c) * 0x9e3779b9) lxor 0x517cc1b7)
           in
           ignore
             (Engine.spawn eng ~label:"client" (fun () ->
                  let i = ref 0 in
                  while true do
                    incr i;
                    let started = Engine.now eng in
                    Wafl_obs.Rollup.count roll ~vol:vid `Admitted;
                    Aggregate.wait_for_log_space agg;
                    let file = files.(Wafl_util.Rng.int rng files_per_shard) in
                    let fbn = Wafl_util.Rng.int rng fbn_space in
                    let content = Int64.of_int ((!i * 131) + (sid * 17) + fbn) in
                    (match Aggregate.write agg ~vol:vid ~file ~fbn ~content with
                    | `Ok -> incr ops_done
                    | `Log_half_full ->
                        Wafl_core.Cp.request (Wafl_core.Walloc.cp walloc);
                        incr ops_done
                    | `Log_exhausted -> ());
                    Wafl_obs.Rollup.count roll ~vol:vid `Completed;
                    Wafl_obs.Rollup.observe_write roll ~vol:vid (Engine.now eng -. started);
                    Engine.consume 3.0
                  done))
         done));
  {
    walloc;
    ops_done;
    cp = Wafl_core.Walloc.cp walloc;
    roll;
  }

let run ?(scale = 1.0) ?(shards = 4) ?(domains = 1) ?(seed = 42) () =
  let warmup = Float.max 20_000.0 (100_000.0 *. scale) in
  let measure = Float.max 50_000.0 (400_000.0 *. scale) in
  let part = Partition.create ~parts:shards ~cores_per_part:4 ~lookahead () in
  let state = Array.init shards (fun sid -> setup part sid ~seed) in
  (* Fleet telemetry owned by partition 0: mutated only by closures
     delivered to (fibers of) partition 0, so it is partition-local. *)
  let fleet_seen = Array.make shards 0 in
  let epochs = ref 0 in
  (* Global CP epoch coordinator on partition 0: each tick fans a
     checkpoint request out to every shard; each shard reports its op
     total back.  Every hop uses the conservative delay. *)
  ignore
    (Engine.spawn (Partition.engine part 0) ~label:"epoch" ~daemon:true (fun () ->
         while true do
           Engine.sleep epoch_us;
           incr epochs;
           for dst = 0 to shards - 1 do
             Partition.post part ~src:0 ~dst ~delay:lookahead (fun () ->
                 Wafl_core.Cp.request state.(dst).cp;
                 let reported = !(state.(dst).ops_done) in
                 Partition.post part ~src:dst ~dst:0 ~delay:lookahead (fun () ->
                     fleet_seen.(dst) <- reported))
           done
         done));
  Partition.run ~domains ~until:warmup part;
  (* Horizon boundary: every partition is parked at [warmup]; reads and
     resets here are host-side and race-free. *)
  let ops0 = Array.map (fun s -> !(s.ops_done)) state in
  let cps0 = Array.map (fun s -> Wafl_core.Cp.cps_completed s.cp) state in
  let epochs0 = !epochs in
  Array.iteri (fun sid _ -> Engine.reset_accounting (Partition.engine part sid)) state;
  Partition.run ~domains ~until:(warmup +. measure) part;
  let rows =
    List.init shards (fun sid ->
        {
          shard = sid;
          ops = !(state.(sid).ops_done) - ops0.(sid);
          cps = Wafl_core.Cp.cps_completed state.(sid).cp - cps0.(sid);
          util = Engine.utilization (Partition.engine part sid);
        })
  in
  (* Horizon boundary again: all partitions parked, so the host-side
     snapshots see each shard at the same virtual time and the merge is
     deterministic at any domain count. *)
  let telemetry =
    Wafl_obs.Rollup.merge_snapshots
      (Array.to_list (Array.mapi (fun sid s -> (sid, Wafl_obs.Rollup.snapshot s.roll)) state))
  in
  {
    rows;
    epochs = !epochs - epochs0;
    fleet_reported = Array.fold_left ( + ) 0 fleet_seen;
    horizon = Partition.now part;
    telemetry;
  }

let digest o =
  let b = Buffer.create 128 in
  List.iter
    (fun r -> Buffer.add_string b (Printf.sprintf "s%d:%d/%d/%.6f;" r.shard r.ops r.cps r.util))
    o.rows;
  Buffer.add_string b (Printf.sprintf "e%d;f%d;h%.1f" o.epochs o.fleet_reported o.horizon);
  (* The full merged rollup snapshot rides in the digest, so any
     window/counter/sketch divergence across domain counts is caught. *)
  Buffer.add_string b ";t";
  Buffer.add_string b (Wafl_obs.Json.to_string (Wafl_obs.Rollup.snapshot_to_json o.telemetry));
  Buffer.contents b

let shapes o =
  let cps = List.map (fun r -> r.cps) o.rows in
  let ops = List.map (fun r -> float_of_int r.ops) o.rows in
  let min_l = List.fold_left min max_int cps and max_l = List.fold_left max 0 cps in
  let mean = List.fold_left ( +. ) 0.0 ops /. float_of_int (max 1 (List.length ops)) in
  let spread_ok =
    List.for_all (fun v -> Float.abs (v -. mean) <= 0.25 *. Float.max 1.0 mean) ops
  in
  [
    Exp.shape "shard: every shard checkpoints on the global epoch barrier"
      (min_l > 0 && max_l - min_l <= 2);
    Exp.shape "shard: uniform load spreads within 25% of mean across shards" spread_ok;
    Exp.shape "shard: coordinator heard op telemetry from the fleet" (o.fleet_reported > 0);
  ]

let print ~shards ~domains o =
  Printf.printf "\nFleet shard: %d aggregate shards on the partitioned engine (%d domain%s)\n"
    shards domains
    (if domains = 1 then "" else "s");
  Printf.printf "  global CP epochs in measure window: %d   fleet ops heard: %d\n" o.epochs
    o.fleet_reported;
  let tbl = Wafl_util.Table.create ~headers:[ "shard"; "ops"; "ops/s"; "CPs"; "util" ] in
  List.iter
    (fun r ->
      Wafl_util.Table.add_row tbl
        [
          string_of_int r.shard;
          string_of_int r.ops;
          Printf.sprintf "%.0f" (float_of_int r.ops /. (o.horizon /. 1e6));
          string_of_int r.cps;
          Printf.sprintf "%.2f" r.util;
        ])
    o.rows;
  Wafl_util.Table.print tbl;
  let windows = List.length o.telemetry.Wafl_obs.Rollup.s_windows in
  let writes =
    List.fold_left
      (fun acc w ->
        List.fold_left (fun a (_, r) -> a + r.Wafl_obs.Rollup.vr_writes) acc w.Wafl_obs.Rollup.w_vols)
      0 o.telemetry.Wafl_obs.Rollup.s_windows
  in
  Printf.printf "  telemetry: %d merged rollup windows, %d windowed writes\n" windows writes;
  Printf.printf "  digest %s\n" (Digest.to_hex (Digest.string (digest o)))
