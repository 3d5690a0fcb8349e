(* Tests for tools/wafl_analyzer, the typedtree (.cmt) static analyzer.

   Teeth in both directions: the deliberately defective fixture modules
   under test/fixtures/analyzer must be caught (unprobed shared state,
   blocking under a held mutex, an AB/BA lock-order cycle), the clean
   fixture and the real simulator libraries must analyze silently, the
   exports pass must single out the one dead value of
   test/fixtures/exports, and the --json output must parse back through
   Wafl_obs.Json.

   The fixture .cmt files are produced by dune as a side effect of
   compiling the analyzer_fixtures library; dune runs tests from
   _build/default/test, so both the fixture objs directory and ../lib
   are reachable with relative paths. *)

open Wafl_analyzer_lib

(* Anchor on the test binary (_build/default/test/test_analyzer.exe) so
   the paths work under both `dune runtest` and `dune exec`. *)
let test_dir = Filename.dirname Sys.executable_name
let fixture_dir = Filename.concat test_dir "fixtures/analyzer/.analyzer_fixtures.objs/byte"

(* Loading mutates per-run tables inside the collector (pending roots,
   known units), so load once and share across tests. *)
let fixture_report = lazy (Load.load_program [ fixture_dir ])

let fixture_findings =
  lazy
    (let prog, units = Lazy.force fixture_report in
     if units = [] then Alcotest.fail "no fixture .cmt files found (dune should build them)";
     Passes.run_all prog)

let by_pass pass = List.filter (fun f -> f.Ir.pass = pass) (Lazy.force fixture_findings)

let mentions sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let has_finding ~pass ~subject_sub ?message_sub () =
  List.exists
    (fun f ->
      mentions subject_sub f.Ir.subject
      && match message_sub with None -> true | Some m -> mentions m f.Ir.message)
    (by_pass pass)

(* --- probe-coverage ----------------------------------------------------- *)

let test_unprobed_ref_flagged () =
  Alcotest.(check bool)
    "module-level ref flagged" true
    (has_finding ~pass:"probe-coverage" ~subject_sub:"Fix_unprobed.hits"
       ~message_sub:"no Engine.probe gate" ());
  Alcotest.(check bool)
    "mutable record field flagged" true
    (has_finding ~pass:"probe-coverage" ~subject_sub:"Fix_unprobed.total" ())

let test_captured_local_flagged () =
  Alcotest.(check bool)
    "ref captured by two spawned closures flagged" true
    (has_finding ~pass:"probe-coverage" ~subject_sub:"Fix_unprobed.start_captured.local" ())

let test_clean_fixture_silent () =
  (* Fix_clean has the same shapes but gates every closure with
     Engine.probe_atomic; nothing in any pass may mention it. *)
  List.iter
    (fun f ->
      if mentions "Fix_clean" f.Ir.subject || mentions "Fix_clean" f.Ir.message then
        Alcotest.failf "clean fixture flagged: [%s] %s" f.Ir.pass f.Ir.message)
    (Lazy.force fixture_findings)

(* --- blocking ----------------------------------------------------------- *)

let test_blocking_direct () =
  Alcotest.(check bool)
    "Engine.sleep under held mutex flagged" true
    (has_finding ~pass:"blocking" ~subject_sub:"Fix_block_under_lock.direct"
       ~message_sub:"Engine.sleep called while holding Fix_block_under_lock.m" ())

let test_blocking_transitive () =
  (* The lock holder calls slow_path, which sleeps: the finding must
     survive one level of indirection and name the callee. *)
  Alcotest.(check bool)
    "blocking through a callee flagged" true
    (has_finding ~pass:"blocking" ~subject_sub:"Fix_block_under_lock.indirect"
       ~message_sub:"Fix_block_under_lock.slow_path" ())

let test_blocking_protect () =
  Alcotest.(check bool)
    "Engine.sleep inside Mutex.protect flagged" true
    (has_finding ~pass:"blocking" ~subject_sub:"Fix_block_under_lock.scoped"
       ~message_sub:"Engine.sleep called while holding" ())

(* --- lock-order --------------------------------------------------------- *)

let test_lock_cycle () =
  match by_pass "lock-order" with
  | [ f ] ->
      Alcotest.(check bool) "names lock a" true (mentions "Fix_lock_cycle.a" f.Ir.message);
      Alcotest.(check bool) "names lock b" true (mentions "Fix_lock_cycle.b" f.Ir.message);
      (* Both edges of the cycle appear in the detail with locations. *)
      Alcotest.(check bool)
        "a -> b edge" true
        (List.exists (mentions "Fix_lock_cycle.a -> Fix_lock_cycle.b") f.Ir.detail);
      Alcotest.(check bool)
        "b -> a edge" true
        (List.exists (mentions "Fix_lock_cycle.b -> Fix_lock_cycle.a") f.Ir.detail)
  | fs -> Alcotest.failf "expected exactly one lock-order finding, got %d" (List.length fs)

(* --- domain-safety ------------------------------------------------------- *)

let test_domain_unsafe_flagged () =
  Alcotest.(check bool)
    "module-level ref written from pool closure flagged" true
    (has_finding ~pass:"domain-safety" ~subject_sub:"Fix_domain_unsafe.racy_hits"
       ~message_sub:"pool-executed closure" ());
  Alcotest.(check bool)
    "named worker function flagged" true
    (has_finding ~pass:"domain-safety" ~subject_sub:"Fix_domain_unsafe.named_total" ());
  Alcotest.(check bool)
    "shared context field written from pool closure flagged" true
    (has_finding ~pass:"domain-safety" ~subject_sub:"Exp.runs" ())

let test_domain_captured_flagged () =
  Alcotest.(check bool)
    "accumulator captured across the domain boundary flagged" true
    (has_finding ~pass:"domain-safety" ~subject_sub:"Fix_domain_unsafe.run_captured.acc"
       ~message_sub:"captured across the domain boundary" ())

let test_domain_guarded_silent () =
  (* The mutex-guarded twin follows the sanctioned discipline; the pass
     must see the held lock and stay silent. *)
  Alcotest.(check bool)
    "mutex-guarded counter not flagged" false
    (has_finding ~pass:"domain-safety" ~subject_sub:"guarded_total" ());
  Alcotest.(check bool)
    "mutex-guarded shared context field not flagged" false
    (has_finding ~pass:"domain-safety" ~subject_sub:"Exp.asked" ())

(* --- clean repo --------------------------------------------------------- *)

let test_repo_lib_clean () =
  (* The real simulator libraries must analyze with zero findings: every
     shared family is behind a probe gate, no blocking under locks, no
     lock cycles, ownership registry consistent. *)
  let prog, units = Load.load_program [ Filename.concat test_dir "../lib" ] in
  if List.length units < 30 then
    Alcotest.failf "expected the full library set, found only %d units" (List.length units);
  if not (List.mem "Ftl" units) then
    Alcotest.fail "expected the flash FTL unit (lib/flash) among the analyzed units";
  match Passes.run_all prog with
  | [] -> ()
  | f :: _ as fs ->
      Alcotest.failf "repo libraries not clean: %d finding(s), first: [%s] %s:%d %s"
        (List.length fs) f.Ir.pass f.Ir.loc.Ir.file f.Ir.loc.Ir.line f.Ir.message

(* --- exports -------------------------------------------------------------- *)

let exports_fixture =
  lazy
    (Exports.analyze ~prefix:"test/fixtures/exports/"
       [ Filename.concat test_dir "fixtures/exports" ])

let test_dead_export_flagged () =
  let r = Lazy.force exports_fixture in
  Alcotest.(check (list string))
    "the dead value is the one unused export" [ "Fix_exports.dead" ]
    (List.map (fun x -> x.Exports.x_name) r.unused)

let test_used_export_counted () =
  (* Fix_user, itself under test/, is the one user of [live]. *)
  let r = Lazy.force exports_fixture in
  Alcotest.(check (list (pair string (list string))))
    "live is referenced from test/ only"
    [ ("Fix_exports.live", [ "test/fixtures/exports/fix_user" ]) ]
    (List.map (fun (x, us) -> (x.Exports.x_name, us)) r.test_only)

(* --- JSON round trip ---------------------------------------------------- *)

let test_json_parses_back () =
  let findings = Lazy.force fixture_findings in
  let s = Report.json_string ~units:5 findings in
  match Wafl_obs.Json.of_string s with
  | Error e -> Alcotest.failf "analyzer JSON does not parse: %s" e
  | Ok j ->
      let open Wafl_obs.Json in
      let str_exn k = match member k j with Some v -> to_str v | None -> None in
      Alcotest.(check (option string)) "schema" (Some "wafl-analyzer/1") (str_exn "schema");
      (match member "count" j with
      | Some (Num n) -> Alcotest.(check int) "count" (List.length findings) (int_of_float n)
      | _ -> Alcotest.fail "missing count");
      (match Option.bind (member "findings" j) to_list with
      | Some items ->
          Alcotest.(check int) "findings array length" (List.length findings) (List.length items);
          List.iter2
            (fun item (f : Ir.finding) ->
              Alcotest.(check (option string))
                "pass field" (Some f.Ir.pass)
                (Option.bind (member "pass" item) to_str);
              Alcotest.(check (option string))
                "message field" (Some f.Ir.message)
                (Option.bind (member "message" item) to_str))
            items findings
      | None -> Alcotest.fail "missing findings array")

let () =
  Alcotest.run "analyzer"
    [
      ( "probe-coverage",
        [
          Alcotest.test_case "unprobed shared state flagged" `Quick test_unprobed_ref_flagged;
          Alcotest.test_case "captured local flagged" `Quick test_captured_local_flagged;
          Alcotest.test_case "clean fixture silent" `Quick test_clean_fixture_silent;
        ] );
      ( "blocking",
        [
          Alcotest.test_case "direct sleep under lock" `Quick test_blocking_direct;
          Alcotest.test_case "transitive block under lock" `Quick test_blocking_transitive;
          Alcotest.test_case "sleep inside Mutex.protect" `Quick test_blocking_protect;
        ] );
      ("lock-order", [ Alcotest.test_case "AB/BA cycle" `Quick test_lock_cycle ]);
      ( "domain-safety",
        [
          Alcotest.test_case "unguarded pool writes flagged" `Quick test_domain_unsafe_flagged;
          Alcotest.test_case "captured accumulator flagged" `Quick test_domain_captured_flagged;
          Alcotest.test_case "guarded twin silent" `Quick test_domain_guarded_silent;
        ] );
      ("clean-repo", [ Alcotest.test_case "lib analyzes clean" `Quick test_repo_lib_clean ]);
      ( "exports",
        [
          Alcotest.test_case "dead export flagged" `Quick test_dead_export_flagged;
          Alcotest.test_case "used export counted" `Quick test_used_export_counted;
        ] );
      ("json", [ Alcotest.test_case "round trip" `Quick test_json_parses_back ]);
    ]
