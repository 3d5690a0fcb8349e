(* Tests for the sanitizers: the happens-before race detector (teeth in
   both directions: a seeded racy pair must be flagged, properly
   synchronized pairs must not), the affinity-isolation checker (a
   message touching another partition's data must abort). *)

open Wafl_sim
module Affinity = Wafl_waffinity.Affinity
module Isolation = Wafl_waffinity.Isolation
module Scheduler = Wafl_waffinity.Scheduler

let spawn eng ?label body = ignore (Engine.spawn eng ?label body)

(* --- detector flags real races --- *)

let test_racy_pair_flagged () =
  let eng = Engine.create ~cores:2 ~sanitize:true () in
  spawn eng ~label:"alpha" (fun () ->
      Engine.consume 1.0;
      Engine.probe eng ~shared:"shared.counter" Race.Write);
  spawn eng ~label:"beta" (fun () ->
      Engine.consume 2.0;
      Engine.probe eng ~shared:"shared.counter" Race.Write);
  Engine.run eng;
  Alcotest.(check int) "write/write race reported" 1 (Engine.race_report_count eng);
  match Engine.race_reports eng with
  | [ r ] ->
      Alcotest.(check string) "shared id" "shared.counter" r.Race.shared;
      let labels = List.sort compare [ r.Race.first_label; r.Race.second_label ] in
      Alcotest.(check (list string)) "both fibers named" [ "alpha"; "beta" ] labels
  | rs -> Alcotest.failf "expected exactly one report, got %d" (List.length rs)

let test_read_write_race_flagged () =
  let eng = Engine.create ~cores:2 ~sanitize:true () in
  spawn eng ~label:"reader" (fun () -> Engine.probe eng ~shared:"x" Race.Read);
  spawn eng ~label:"writer" (fun () ->
      Engine.consume 1.0;
      Engine.probe eng ~shared:"x" Race.Write);
  Engine.run eng;
  Alcotest.(check bool) "read/write race reported" true (Engine.race_report_count eng >= 1)

let test_concurrent_reads_clean () =
  let eng = Engine.create ~cores:2 ~sanitize:true () in
  for _ = 1 to 4 do
    spawn eng (fun () -> Engine.probe eng ~shared:"x" Race.Read)
  done;
  Engine.run eng;
  Alcotest.(check int) "read/read is not a race" 0 (Engine.race_report_count eng)

let test_distinct_ids_clean () =
  let eng = Engine.create ~cores:2 ~sanitize:true () in
  spawn eng (fun () -> Engine.probe eng ~shared:"a" Race.Write);
  spawn eng (fun () -> Engine.probe eng ~shared:"b" Race.Write);
  Engine.run eng;
  Alcotest.(check int) "different ids never race" 0 (Engine.race_report_count eng)

(* --- synchronized pairs stay clean --- *)

let test_channel_ordered_clean () =
  let eng = Engine.create ~cores:2 ~sanitize:true () in
  let ch = Sync.Channel.create eng in
  spawn eng ~label:"producer" (fun () ->
      Engine.probe eng ~shared:"handoff" Race.Write;
      Sync.Channel.send ch ());
  spawn eng ~label:"consumer" (fun () ->
      Sync.Channel.recv ch;
      Engine.probe eng ~shared:"handoff" Race.Write);
  Engine.run eng;
  Alcotest.(check int) "channel send/recv is release/acquire" 0 (Engine.race_report_count eng)

let test_join_ordered_clean () =
  let eng = Engine.create ~cores:2 ~sanitize:true () in
  let a =
    Engine.spawn eng ~label:"first" (fun () ->
        Engine.consume 3.0;
        Engine.probe eng ~shared:"once" Race.Write)
  in
  spawn eng ~label:"second" (fun () ->
      Engine.join eng a;
      Engine.probe eng ~shared:"once" Race.Write);
  Engine.run eng;
  Alcotest.(check int) "join is an ordering edge" 0 (Engine.race_report_count eng)

let test_probe_atomic_never_reports () =
  let eng = Engine.create ~cores:2 ~sanitize:true () in
  for _ = 1 to 4 do
    spawn eng (fun () ->
        Engine.probe_atomic eng ~shared:"relaxed.counter";
        Engine.consume 1.0)
  done;
  Engine.run eng;
  Alcotest.(check int) "atomic probes are exempt" 0 (Engine.race_report_count eng)

let test_probe_locked_serializes () =
  let eng = Engine.create ~cores:2 ~sanitize:true () in
  for _ = 1 to 4 do
    spawn eng (fun () ->
        Engine.probe_locked eng ~shared:"buffer.0" Race.Write;
        Engine.consume 1.0)
  done;
  Engine.run eng;
  Alcotest.(check int) "per-item lock model serializes same-id" 0
    (Engine.race_report_count eng)

let test_disabled_probes_are_noops () =
  let eng = Engine.create ~cores:2 () in
  spawn eng (fun () ->
      Engine.probe eng ~shared:"x" Race.Write;
      Engine.probe_atomic eng ~shared:"y";
      Engine.probe_locked eng ~shared:"z" Race.Write);
  spawn eng (fun () -> Engine.probe eng ~shared:"x" Race.Write);
  Engine.run eng;
  Alcotest.(check bool) "no detector attached" false (Engine.sanitizing eng);
  Alcotest.(check int) "no reports possible" 0 (Engine.race_report_count eng)

(* The detector rides the engine's own edges, so a sanitized run must be
   bit-identical to an unsanitized one: probes consume no virtual time. *)
let test_sanitize_does_not_change_timing () =
  let run sanitize =
    let eng = Engine.create ~cores:2 ~sanitize () in
    (* A one-token channel serializes the critical sections: [recv]
       takes the token, parking while another fiber holds it. *)
    let token = Sync.Channel.create eng in
    Sync.Channel.send token ();
    for _ = 1 to 3 do
      spawn eng (fun () ->
          Sync.Channel.recv token;
          Engine.probe eng ~shared:"s" Race.Write;
          Engine.consume 7.0;
          Sync.Channel.send token ();
          Engine.consume 2.0)
    done;
    Engine.run eng;
    Engine.now eng
  in
  Alcotest.(check (float 0.0)) "identical end time" (run false) (run true)

(* --- affinity-isolation checker --- *)

let make_checked_stack () =
  let eng = Engine.create ~cores:4 ~sanitize:true () in
  let iso = Isolation.create () in
  Engine.set_access_hook eng (fun fid shared _mode -> Isolation.check iso ~fid ~shared);
  let sched = Scheduler.create ~isolation:iso eng ~cost:Cost.default () in
  (eng, iso, sched)

let vol_map_domain = "vol/0.map/0"

let test_isolation_allows_owner_and_family () =
  let eng, iso, sched = make_checked_stack () in
  Isolation.register_owner iso ~shared:vol_map_domain (Affinity.Volume_vbn (0, 0));
  (* The owner itself, a descendant range and the Serial ancestor are all
     granted exclusive access by the scheduler, so all may touch it. *)
  List.iter
    (fun affinity ->
      Scheduler.post sched ~affinity ~label:"infra" (fun () ->
          Engine.probe eng ~shared:vol_map_domain Race.Write))
    [ Affinity.Volume_vbn (0, 0); Affinity.Vol_range (0, 0, 1); Affinity.Serial ];
  Engine.run eng;
  Alcotest.(check int) "no races either" 0 (Engine.race_report_count eng)

let test_isolation_flags_foreign_touch () =
  let eng, iso, sched = make_checked_stack () in
  Isolation.register_owner iso ~shared:vol_map_domain (Affinity.Volume_vbn (0, 0));
  (* A Volume_logical message runs concurrently with Volume_vbn (they are
     siblings), so touching the volume map from it is the exact bug class
     the checker exists for. *)
  Scheduler.post sched ~affinity:(Affinity.Volume_logical (0, 0)) ~label:"client" (fun () ->
      Engine.probe eng ~shared:vol_map_domain Race.Write);
  let raised =
    try
      Engine.run eng;
      false
    with Isolation.Violation _ -> true
  in
  Alcotest.(check bool) "foreign touch aborts" true raised

let test_isolation_chaos_misattribution_caught () =
  let eng, iso, sched = make_checked_stack () in
  Isolation.register_owner iso ~shared:vol_map_domain (Affinity.Volume_vbn (0, 0));
  (* Drop the isolation guard: the same body, posted to the wrong
     affinity (a Stripe, which runs concurrently with Volume_vbn), must
     be caught. *)
  let body () = Engine.probe eng ~shared:vol_map_domain Race.Write in
  Scheduler.post sched ~affinity:(Affinity.Volume_vbn (0, 0)) ~label:"infra" body;
  Scheduler.post sched ~affinity:(Affinity.Stripe (0, 0, 3)) ~label:"infra" body;
  let msg =
    try
      Engine.run eng;
      ""
    with Isolation.Violation m -> m
  in
  Alcotest.(check bool) "misattributed message aborts" true (msg <> "");
  let contains sub =
    let ls = String.length sub and lm = String.length msg in
    let rec go i = i + ls <= lm && (String.sub msg i ls = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) ("domain named in: " ^ msg) true (contains vol_map_domain)

let test_isolation_unregistered_and_nonmessage_free () =
  let eng, iso, sched = make_checked_stack () in
  Isolation.register_owner iso ~shared:vol_map_domain (Affinity.Volume_vbn (0, 0));
  (* Unregistered domains are unconstrained, and so are probes from plain
     fibers (cleaners, the CP fiber) that run under no affinity. *)
  Scheduler.post sched ~affinity:(Affinity.Stripe (0, 0, 0)) ~label:"client" (fun () ->
      Engine.probe eng ~shared:"scratch" Race.Write);
  spawn eng ~label:"cleaner" (fun () -> Engine.probe eng ~shared:vol_map_domain Race.Read);
  Engine.run eng;
  Alcotest.(check bool) "ran to completion" true (Engine.live_fibers eng = 0)

let () =
  Alcotest.run "race"
    [
      ( "detector",
        [
          Alcotest.test_case "racy write/write flagged" `Quick test_racy_pair_flagged;
          Alcotest.test_case "racy read/write flagged" `Quick test_read_write_race_flagged;
          Alcotest.test_case "concurrent reads clean" `Quick test_concurrent_reads_clean;
          Alcotest.test_case "distinct ids clean" `Quick test_distinct_ids_clean;
          Alcotest.test_case "channel-ordered clean" `Quick test_channel_ordered_clean;
          Alcotest.test_case "join-ordered clean" `Quick test_join_ordered_clean;
          Alcotest.test_case "probe_atomic exempt" `Quick test_probe_atomic_never_reports;
          Alcotest.test_case "probe_locked serializes" `Quick test_probe_locked_serializes;
          Alcotest.test_case "disabled probes no-op" `Quick test_disabled_probes_are_noops;
          Alcotest.test_case "sanitize keeps timing" `Quick
            test_sanitize_does_not_change_timing;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "owner and family allowed" `Quick
            test_isolation_allows_owner_and_family;
          Alcotest.test_case "foreign touch flagged" `Quick test_isolation_flags_foreign_touch;
          Alcotest.test_case "chaos misattribution caught" `Quick
            test_isolation_chaos_misattribution_caught;
          Alcotest.test_case "unregistered domains free" `Quick
            test_isolation_unregistered_and_nonmessage_free;
        ] );
    ]
