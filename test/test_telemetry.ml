(* Tests for the always-on fleet telemetry (DESIGN.md §4.15): the
   observe-only invariant (a telemetry-on result, telemetry stripped,
   matches the telemetry-off golden), the health watchdog's
   quiet-on-healthy / loud-on-injected behavior via chaos plans,
   snapshot JSON round-trips, merge determinism, and the fleet-scale
   memory budget. *)

open Wafl_workload
module Rollup = Wafl_obs.Rollup
module Health = Wafl_obs.Health
module Top = Wafl_obs.Top
module Json = Wafl_obs.Json
module Histogram = Wafl_util.Histogram

let small_spec ?workload ?clients () = Golden.small_spec ?workload ?clients ~volumes:2 ()

let with_telemetry ?(rollup = Rollup.default_config) ?(rules = Health.default_rules)
    (spec : Driver.spec) =
  { spec with Driver.telemetry = Some { Driver.rollup; rules } }

let telem r =
  match r.Driver.telemetry with
  | Some t -> t
  | None -> Alcotest.fail "telemetry requested but result carries none"

(* --- observe-only invariant ---------------------------------------------- *)

(* A telemetry-on result with its telemetry stripped must match the
   golden digest of the telemetry-off run (golden.ml). *)
let without_telemetry r = { r with Driver.telemetry = None }

(* The telemetry-on closed-loop run, shared by the tests that read it. *)
let closed_on = lazy (fst (Golden.run Golden.telemetry_closed Golden.Telemetry))

let test_bit_identity () =
  let on = Lazy.force closed_on in
  Golden.expect ~pin:without_telemetry Golden.telemetry_closed Golden.Telemetry on;
  let tr = telem on in
  Alcotest.(check bool) "rollup sealed windows" true (tr.Driver.tr_snapshot.Rollup.s_windows <> [])

let test_bit_identity_open_loop () =
  let on = Golden.check ~pin:without_telemetry Golden.telemetry_open Golden.Telemetry in
  (* Shed/throttle/admit verdicts land in the per-volume rows. *)
  let tr = telem on in
  let sum f =
    List.fold_left
      (fun acc w -> List.fold_left (fun a (_, row) -> a + f row) acc w.Rollup.w_vols)
      0 tr.Driver.tr_snapshot.Rollup.s_windows
  in
  Alcotest.(check bool) "windowed writes observed" true (sum (fun r -> r.Rollup.vr_writes) > 0);
  Alcotest.(check bool) "admissions observed" true (sum (fun r -> r.Rollup.vr_admitted) > 0)

(* --- watchdog: quiet on healthy runs ------------------------------------- *)

let test_healthy_zero_events () =
  let quiet name r =
    Alcotest.(check int)
      (name ^ ": healthy run emits no health events")
      0
      (List.length (telem r).Driver.tr_events)
  in
  quiet "seq" (Lazy.force closed_on);
  List.iter
    (fun (name, spec) -> quiet name (Driver.run (with_telemetry spec)))
    [
      ("oltp", small_spec ~workload:(Driver.Oltp { file_blocks = 1024; read_fraction = 0.67 }) ());
      ("nfs", small_spec ~workload:(Driver.Nfs_mix { files_per_client = 16; file_blocks = 32 }) ());
    ]

(* --- watchdog: chaos injection ------------------------------------------- *)

(* Light load (think time keeps the log far from half-full, so natural
   b2b is zero) with a fast CP timer: injection flips the dense timer
   CPs to back-to-back, which is exactly the all-b2b signature the
   streak rule looks for. *)
let frequent_cp_spec () =
  {
    (small_spec ()) with
    Driver.think_time = 300.0;
    cfg = { Wafl_core.Walloc.default_config with cp_timer = Some 3_000.0 };
    measure = 500_000.0;
  }

(* A healthy spec and its twin under [chaos], run side by side on two
   worker domains: each run carries its own plan. *)
let with_twin ?rollup spec chaos =
  match
    Wafl_util.Pool.map ~domains:2
      (fun spec -> telem (Driver.run (with_telemetry ?rollup spec)))
      [ spec; { spec with Driver.chaos } ]
  with
  | [ healthy; injected ] -> (healthy, injected)
  | _ -> assert false

let test_chaos_b2b_streak () =
  let healthy, tr =
    with_twin (frequent_cp_spec ()) { Wafl_storage.Fault.no_chaos with force_b2b = true }
  in
  Alcotest.(check int) "frequent CPs alone stay quiet" 0 (List.length healthy.Driver.tr_events);
  let b2b = List.filter (fun ev -> ev.Health.ev_rule = "b2b_streak") tr.Driver.tr_events in
  Alcotest.(check bool) "injected b2b streak detected" true (b2b <> []);
  List.iter
    (fun ev -> Alcotest.(check bool) "b2b events are critical" true (ev.Health.ev_severity = Health.Crit))
    b2b

let test_chaos_hard_dwell () =
  let rollup = { Rollup.default_config with Rollup.window_us = 50_000.0 } in
  let healthy, tr =
    with_twin ~rollup (small_spec ()) { Wafl_storage.Fault.no_chaos with hard_dwell_us = 25.0 }
  in
  let dwell tr = List.filter (fun ev -> ev.Health.ev_rule = "hard_dwell") tr.Driver.tr_events in
  Alcotest.(check int) "no hard-watermark dwell without injection" 0 (List.length (dwell healthy));
  Alcotest.(check bool) "injected hard-watermark dwell detected" true (dwell tr <> [])

(* --- snapshot JSON round-trips ------------------------------------------- *)

let test_snapshot_roundtrip () =
  let tr = telem (Lazy.force closed_on) in
  let s1 = Json.to_string (Rollup.snapshot_to_json tr.Driver.tr_snapshot) in
  let reparsed =
    match Json.of_string s1 with
    | Ok j -> Rollup.snapshot_of_json j
    | Error e -> Alcotest.failf "snapshot JSON does not parse: %s" e
  in
  let s2 = Json.to_string (Rollup.snapshot_to_json reparsed) in
  Alcotest.(check string) "rollup snapshot JSON round-trips byte-identically" s1 s2;
  let t1 = Json.to_string (Top.to_json tr.Driver.tr_snapshot tr.Driver.tr_events) in
  let snap2, events2 =
    match Json.of_string t1 with
    | Ok j -> Top.of_json j
    | Error e -> Alcotest.failf "top JSON does not parse: %s" e
  in
  let t2 = Json.to_string (Top.to_json snap2 events2) in
  Alcotest.(check string) "wafl-top JSON round-trips byte-identically" t1 t2;
  (* The rendered tables are pure functions of the snapshot. *)
  Alcotest.(check string) "render is reproducible from the re-parsed snapshot"
    (Top.render tr.Driver.tr_snapshot tr.Driver.tr_events)
    (Top.render snap2 events2)

let test_merge_deterministic () =
  let tr = telem (Lazy.force closed_on) in
  let snap = tr.Driver.tr_snapshot in
  let m1 = Rollup.merge_snapshots [ (0, snap); (1, snap) ] in
  let m2 = Rollup.merge_snapshots [ (1, snap); (0, snap) ] in
  Alcotest.(check string) "merge is order-independent"
    (Json.to_string (Rollup.snapshot_to_json m1))
    (Json.to_string (Rollup.snapshot_to_json m2));
  (* Merging two copies of one shard doubles every counter and sketch. *)
  let total s =
    List.fold_left
      (fun acc w ->
        List.fold_left (fun a (_, row) -> a + row.Rollup.vr_writes) acc w.Rollup.w_vols)
      0 s.Rollup.s_windows
  in
  Alcotest.(check int) "merged writes sum over shards" (2 * total snap) (total m1)

(* --- fleet-scale memory budget ------------------------------------------- *)

let test_thousand_volume_budget () =
  let cfg = Rollup.default_config in
  let eng = Wafl_sim.Engine.create ~cores:1 () in
  let roll = Rollup.create ~config:cfg eng in
  let vols = 1000 in
  ignore
    (Wafl_sim.Engine.spawn eng (fun () ->
         (* Drive enough windows to cycle the ring past its capacity. *)
         for _w = 1 to (2 * cfg.Rollup.windows) + 3 do
           for vol = 0 to vols - 1 do
             Rollup.count roll ~vol `Admitted;
             Rollup.observe_write roll ~vol (float_of_int ((vol mod 97) + 1));
             Rollup.count roll ~vol `Completed
           done;
           Wafl_sim.Engine.sleep cfg.Rollup.window_us
         done));
  Wafl_sim.Engine.run eng;
  let snap = Rollup.snapshot roll in
  Alcotest.(check int) "ring holds exactly the configured window count" cfg.Rollup.windows
    (List.length snap.Rollup.s_windows);
  List.iter
    (fun w ->
      Alcotest.(check int) "every volume appears in every sealed window" vols
        (List.length w.Rollup.w_vols))
    snap.Rollup.s_windows;
  (* The whole structure, divided across volumes, must fit the per-volume
     byte budget (ISSUE: O(volumes x windows), bounded per volume). *)
  let bytes = 8 * Obj.reachable_words (Obj.repr roll) in
  let per_vol = bytes / vols in
  Alcotest.(check bool)
    (Printf.sprintf "per-volume footprint %dB within budget %dB" per_vol
       cfg.Rollup.vol_budget_bytes)
    true
    (per_vol <= cfg.Rollup.vol_budget_bytes)

(* --- sparse volume ids ----------------------------------------------------- *)

(* Only volumes 3 and 9 are ever fed; volume 3 goes quiet with a backlog
   (a zero-activity row) and drops out once drained.  Expected rows were
   recorded from the hash-table implementation the slot array replaced. *)
let test_sparse_volumes () =
  let cfg = Rollup.default_config in
  let w = cfg.Rollup.window_us in
  let eng = Wafl_sim.Engine.create ~cores:1 () in
  let roll = Rollup.create ~config:cfg eng in
  let feed vol kinds = List.iter (fun k -> Rollup.count roll ~vol k) kinds in
  ignore
    (Wafl_sim.Engine.spawn eng (fun () ->
         feed 3 [ `Admitted; `Admitted; `Admitted ];
         Rollup.observe_write roll ~vol:3 10.0;
         feed 3 [ `Completed ];
         feed 9 [ `Admitted; `Throttled; `Shed ];
         Rollup.observe_write roll ~vol:9 20.0;
         feed 9 [ `Completed ];
         Wafl_sim.Engine.sleep w;
         feed 9 [ `Admitted ];
         Rollup.observe_write roll ~vol:9 30.0;
         Rollup.observe_write roll ~vol:9 40.0;
         feed 9 [ `Completed ];
         Wafl_sim.Engine.sleep w;
         feed 3 [ `Completed; `Completed ];
         Wafl_sim.Engine.sleep w;
         feed 9 [ `Admitted ];
         Wafl_sim.Engine.sleep w));
  Wafl_sim.Engine.run eng;
  let rows =
    List.concat_map
      (fun win ->
        List.map
          (fun (vol, r) ->
            Printf.sprintf "w%d v%d: %d/%d/%d/%d/%d backlog %d lat %d" win.Rollup.w_seq vol
              r.Rollup.vr_writes r.Rollup.vr_admitted r.Rollup.vr_throttled r.Rollup.vr_shed
              r.Rollup.vr_completed r.Rollup.vr_backlog (Histogram.count r.Rollup.vr_lat))
          win.Rollup.w_vols)
      (Rollup.snapshot roll).Rollup.s_windows
  in
  Alcotest.(check (list string)) "rows"
    [
      "w0 v3: 1/3/0/0/1 backlog 2 lat 1";
      "w0 v9: 1/1/1/1/1 backlog 0 lat 1";
      "w1 v3: 0/0/0/0/0 backlog 2 lat 0";
      "w1 v9: 2/1/0/0/1 backlog 0 lat 2";
      "w2 v3: 0/0/0/0/2 backlog 0 lat 0";
      "w3 v9: 0/1/0/0/0 backlog 1 lat 0";
    ]
    rows

(* --- budget rejection ----------------------------------------------------- *)

let test_budget_rejected () =
  let eng = Wafl_sim.Engine.create ~cores:1 () in
  let cfg = { Rollup.default_config with Rollup.vol_budget_bytes = 64 } in
  match Rollup.create ~config:cfg eng with
  | _ -> Alcotest.fail "a 64-byte budget cannot hold the ring"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "telemetry"
    [
      ( "observe-only",
        [
          Alcotest.test_case "closed-loop bit-identity" `Slow test_bit_identity;
          Alcotest.test_case "open-loop bit-identity" `Slow test_bit_identity_open_loop;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "healthy runs emit nothing" `Slow test_healthy_zero_events;
          Alcotest.test_case "injected b2b streak fires" `Slow test_chaos_b2b_streak;
          Alcotest.test_case "injected hard dwell fires" `Slow test_chaos_hard_dwell;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "JSON round-trip" `Slow test_snapshot_roundtrip;
          Alcotest.test_case "deterministic merge" `Quick test_merge_deterministic;
        ] );
      ( "budget",
        [
          Alcotest.test_case "1000-volume smoke" `Quick test_thousand_volume_budget;
          Alcotest.test_case "sparse volume ids" `Quick test_sparse_volumes;
          Alcotest.test_case "undersized budget rejected" `Quick test_budget_rejected;
        ] );
    ]
