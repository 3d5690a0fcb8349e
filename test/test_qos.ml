(* Tests for the QoS layer (token buckets, fair interleave, per-volume
   admission) and the open-loop arrival generators.  The load-bearing
   property throughout is determinism: every decision and every gap is a
   pure function of (parameters, seed, arrival sequence), which is what
   lets QoS-on overload runs replay byte-identically. *)

open Wafl_qos
open Wafl_workload

let q = QCheck_alcotest.to_alcotest

(* --- token bucket -------------------------------------------------------- *)

let test_bucket_burst_then_delay () =
  (* Starts full: [burst] ops admit back-to-back, the next is delayed by
     exactly one token's refill time (GCRA). *)
  let b = Token_bucket.create ~rate_per_s:1_000.0 ~burst:4.0 in
  for i = 1 to 4 do
    match Token_bucket.reserve b ~now:0.0 ~max_debt:8.0 with
    | Token_bucket.Admit -> ()
    | _ -> Alcotest.failf "op %d of the initial burst not admitted" i
  done;
  (match Token_bucket.reserve b ~now:0.0 ~max_debt:8.0 with
  | Token_bucket.Delay d ->
      (* 1000 ops/s = 1e-3 tokens/µs; one token of debt = 1000 µs. *)
      Alcotest.(check (float 1e-6)) "first delay is one refill period" 1_000.0 d
  | _ -> Alcotest.fail "fifth op should be delayed");
  match Token_bucket.reserve b ~now:0.0 ~max_debt:8.0 with
  | Token_bucket.Delay d ->
      Alcotest.(check (float 1e-6)) "debt accumulates linearly" 2_000.0 d
  | _ -> Alcotest.fail "sixth op should be delayed"

let test_bucket_sheds_at_max_debt () =
  let b = Token_bucket.create ~rate_per_s:1_000.0 ~burst:1.0 in
  (* One admit, then ride the debt down to the bound. *)
  let rec drain n =
    if n = 0 then ()
    else begin
      (match Token_bucket.reserve b ~now:0.0 ~max_debt:3.0 with
      | Token_bucket.Shed -> Alcotest.fail "shed before the queue was full"
      | _ -> ());
      drain (n - 1)
    end
  in
  drain 4 (* tokens: 1 -> 0, -1, -2, -3 *);
  let before = Token_bucket.state b in
  (match Token_bucket.reserve b ~now:0.0 ~max_debt:3.0 with
  | Token_bucket.Shed -> ()
  | _ -> Alcotest.fail "full queue must shed");
  Alcotest.(check bool) "shed leaves bucket state untouched" true
    (Token_bucket.state b = before)

let test_bucket_refills_to_burst_cap () =
  let b = Token_bucket.create ~rate_per_s:1_000_000.0 ~burst:2.0 in
  ignore (Token_bucket.reserve b ~now:0.0 ~max_debt:8.0);
  ignore (Token_bucket.reserve b ~now:0.0 ~max_debt:8.0);
  (* A long idle refills to the cap, never beyond. *)
  (match Token_bucket.reserve b ~now:1e9 ~max_debt:8.0 with
  | Token_bucket.Admit -> ()
  | _ -> Alcotest.fail "refilled bucket should admit");
  Alcotest.(check (float 1e-9)) "tokens capped at burst" 1.0 (Token_bucket.tokens b)

let arb_reservations =
  (* A reservation sequence: monotone arrival times built from gaps. *)
  QCheck.(
    triple
      (pair (float_range 100.0 200_000.0) (float_range 1.0 64.0))
      (float_range 0.0 32.0)
      (list_of_size Gen.(1 -- 200) (float_range 0.0 500.0)))

let prop_bucket_replay_identity =
  QCheck.Test.make ~name:"token bucket: same arrivals, same decisions and state" ~count:200
    arb_reservations
    (fun ((rate_per_s, burst), max_debt, gaps) ->
      let run () =
        let b = Token_bucket.create ~rate_per_s ~burst in
        let now = ref 0.0 in
        let ds =
          List.map
            (fun gap ->
              now := !now +. gap;
              Token_bucket.reserve b ~now:!now ~max_debt)
            gaps
        in
        (ds, Token_bucket.state b)
      in
      run () = run ())

let prop_bucket_debt_bounded =
  QCheck.Test.make ~name:"token bucket: debt never exceeds the queue bound" ~count:200
    arb_reservations
    (fun ((rate_per_s, burst), max_debt, gaps) ->
      let b = Token_bucket.create ~rate_per_s ~burst in
      let now = ref 0.0 in
      List.for_all
        (fun gap ->
          now := !now +. gap;
          ignore (Token_bucket.reserve b ~now:!now ~max_debt);
          Token_bucket.tokens b >= -.max_debt -. 1e-9)
        gaps)

(* --- fair interleave ----------------------------------------------------- *)

let test_interleave_round_robin () =
  Alcotest.(check (list int))
    "one element per list per round"
    [ 1; 10; 100; 2; 20; 200; 3; 30; 4 ]
    (Fair.interleave [ [ 1; 2; 3; 4 ]; [ 10; 20; 30 ]; [ 100; 200 ] ])

let test_interleave_edge_cases () =
  Alcotest.(check (list int)) "empty input" [] (Fair.interleave []);
  Alcotest.(check (list int)) "empty lists skipped" [ 1; 2 ] (Fair.interleave [ []; [ 1; 2 ]; [] ]);
  Alcotest.(check (list int)) "single list unchanged" [ 3; 1; 2 ] (Fair.interleave [ [ 3; 1; 2 ] ])

let prop_interleave_preserves_elements =
  QCheck.Test.make ~name:"interleave: permutation that preserves per-list order" ~count:200
    QCheck.(list_of_size Gen.(0 -- 8) (list_of_size Gen.(0 -- 20) small_nat))
    (fun lists ->
      let out = Fair.interleave lists in
      (* Same multiset... *)
      List.sort compare out = List.sort compare (List.concat lists)
      (* ...and each list's own order survives (indices are per-list
         positions, so subsequence extraction is exact for tagged
         elements). *)
      &&
      let tagged = List.mapi (fun i l -> List.map (fun x -> (i, x)) l) lists in
      let out_tagged = Fair.interleave tagged in
      List.for_all
        (fun (i, l) -> List.filter (fun (j, _) -> j = i) out_tagged = List.map (fun x -> (i, x)) l)
        (List.mapi (fun i l -> (i, l)) lists))

(* --- per-volume admission ------------------------------------------------ *)

let verdict =
  Alcotest.testable
    (fun ppf v ->
      Format.pp_print_string ppf
        (match v with
        | `Admit -> "Admit"
        | `Delay d -> Printf.sprintf "Delay %g" d
        | `Shed -> "Shed"))
    ( = )

let test_qos_volumes_independent () =
  let qos = Qos.create { Qos.rate_per_s = 1_000.0; burst = 1.0; queue_depth = 0 } in
  (* Volume 0 exhausts its bucket (queue_depth 0 sheds its second op);
     volume 1's first op still admits. *)
  let verdicts = List.map (fun vol -> Qos.admit qos ~vol ~now:0.0) [ 0; 0; 1 ] in
  Alcotest.(check (list verdict)) "vol 0 admit, shed; vol 1 admit" [ `Admit; `Shed; `Admit ]
    verdicts;
  Alcotest.(check bool) "untouched volume has no bucket" true
    (Qos.bucket_state qos ~vol:7 = None)

let test_qos_vol_verdicts () =
  (* Per-volume verdict sequences: burst admits, then one queue slot
     (a 1 ms delay at 1 k ops/s), then shedding; another volume's first
     op is unaffected. *)
  let qos = Qos.create { Qos.rate_per_s = 1_000.0; burst = 2.0; queue_depth = 1 } in
  let vol0 = List.init 4 (fun _ -> Qos.admit qos ~vol:0 ~now:0.0) in
  Alcotest.(check (list verdict)) "vol 0 admit, admit, delay, shed"
    [ `Admit; `Admit; `Delay 1_000.0; `Shed ] vol0;
  Alcotest.(check (list verdict)) "vol 3 single admit" [ `Admit ] [ Qos.admit qos ~vol:3 ~now:0.0 ];
  Alcotest.(check bool) "untouched volume has no bucket" true (Qos.bucket_state qos ~vol:9 = None)

let prop_qos_replay_identity =
  QCheck.Test.make ~name:"qos: same arrival sequence, same verdicts and bucket state" ~count:100
    QCheck.(
      pair
        (pair (float_range 1_000.0 100_000.0) (float_range 1.0 32.0))
        (list_of_size Gen.(1 -- 150) (pair (int_bound 3) (float_range 0.0 100.0))))
    (fun ((rate_per_s, burst), arrivals) ->
      let run () =
        let qos = Qos.create { Qos.rate_per_s; burst; queue_depth = 4 } in
        let now = ref 0.0 in
        let vs =
          List.map
            (fun (vol, gap) ->
              now := !now +. gap;
              (Qos.admit qos ~vol ~now:!now, Qos.bucket_state qos ~vol))
            arrivals
        in
        vs
      in
      run () = run ())

(* --- arrival generators -------------------------------------------------- *)

let draw_gaps proc ~seed ~n =
  let s = Arrival.start proc ~rng:(Wafl_util.Rng.create ~seed) in
  let now = ref 0.0 in
  List.init n (fun _ ->
      let gap = Arrival.next s ~now:!now in
      now := !now +. gap;
      gap)

let arb_process =
  let open QCheck in
  let gen =
    Gen.oneof
      [
        Gen.map (fun r -> Arrival.Poisson { rate = r }) (Gen.float_range 100.0 1e6);
        Gen.map
          (fun (base_rate, burst_rate, mean_on_us, mean_off_us) ->
            Arrival.Bursty { base_rate; burst_rate; mean_on_us; mean_off_us })
          (Gen.quad (Gen.float_range 0.0 1e4) (Gen.float_range 1e4 1e6)
             (Gen.float_range 100.0 1e4) (Gen.float_range 100.0 1e4));
        Gen.map
          (fun (peak_rate, floor, period_us) -> Arrival.Diurnal { peak_rate; floor; period_us })
          (Gen.triple (Gen.float_range 1e3 1e6) (Gen.float_range 0.0 1.0)
             (Gen.float_range 1e3 1e6));
      ]
  in
  make gen

let prop_arrival_same_seed_identity =
  QCheck.Test.make ~name:"arrivals: same process + seed, byte-identical gap sequence" ~count:150
    QCheck.(pair arb_process small_nat)
    (fun (proc, seed) -> draw_gaps proc ~seed ~n:300 = draw_gaps proc ~seed ~n:300)

let prop_arrival_gaps_sane =
  QCheck.Test.make ~name:"arrivals: gaps are positive and finite" ~count:150
    QCheck.(pair arb_process small_nat)
    (fun (proc, seed) ->
      List.for_all (fun g -> g > 0.0 && Float.is_finite g) (draw_gaps proc ~seed ~n:300))

let mean_gap proc ~seed ~n =
  List.fold_left ( +. ) 0.0 (draw_gaps proc ~seed ~n) /. float_of_int n

let test_arrival_mean_rates () =
  (* Long-run mean gap tracks 1e6 / mean_rate for each process family. *)
  List.iter
    (fun proc ->
      let want = 1e6 /. Arrival.mean_rate proc in
      let got = mean_gap proc ~seed:42 ~n:60_000 in
      Alcotest.(check bool)
        (Printf.sprintf "mean gap within 10%% (want %.1f, got %.1f)" want got)
        true
        (Float.abs (got -. want) < 0.10 *. want))
    [
      Arrival.Poisson { rate = 25_000.0 };
      Arrival.Bursty
        { base_rate = 2_000.0; burst_rate = 150_000.0; mean_on_us = 2_000.0; mean_off_us = 6_000.0 };
      Arrival.Diurnal { peak_rate = 50_000.0; floor = 0.2; period_us = 40_000.0 };
    ]

let test_arrival_validation () =
  List.iter
    (fun proc ->
      match Arrival.validate proc with
      | () -> Alcotest.fail "invalid process accepted"
      | exception Invalid_argument _ -> ())
    [
      Arrival.Poisson { rate = 0.0 };
      Arrival.Poisson { rate = -5.0 };
      Arrival.Bursty { base_rate = -1.0; burst_rate = 1e5; mean_on_us = 1e3; mean_off_us = 1e3 };
      Arrival.Bursty { base_rate = 0.0; burst_rate = 0.0; mean_on_us = 1e3; mean_off_us = 1e3 };
      Arrival.Bursty { base_rate = 0.0; burst_rate = 1e5; mean_on_us = 0.0; mean_off_us = 1e3 };
      Arrival.Diurnal { peak_rate = 1e5; floor = 1.5; period_us = 1e4 };
      Arrival.Diurnal { peak_rate = 1e5; floor = 0.5; period_us = 0.0 };
    ]

let test_population () =
  let procs = Arrival.population ~n:8 ~total_rate:80_000.0 ~alpha:1.0 in
  Alcotest.(check int) "population size" 8 (List.length procs);
  let rates = List.map Arrival.mean_rate procs in
  let total = List.fold_left ( +. ) 0.0 rates in
  Alcotest.(check (float 1e-6)) "rates sum to the total" 80_000.0 total;
  Alcotest.(check bool) "Zipf weights are non-increasing" true
    (List.for_all2 ( >= ) (List.filteri (fun i _ -> i < 7) rates) (List.tl rates));
  let uniform = Arrival.population ~n:4 ~total_rate:100.0 ~alpha:0.0 in
  List.iter
    (fun p -> Alcotest.(check (float 1e-9)) "alpha 0 is a uniform split" 25.0 (Arrival.mean_rate p))
    uniform

let () =
  Alcotest.run "wafl_qos"
    [
      ( "token bucket",
        [
          Alcotest.test_case "burst then GCRA delay" `Quick test_bucket_burst_then_delay;
          Alcotest.test_case "sheds at max debt, state untouched" `Quick
            test_bucket_sheds_at_max_debt;
          Alcotest.test_case "refill capped at burst" `Quick test_bucket_refills_to_burst_cap;
          q prop_bucket_replay_identity;
          q prop_bucket_debt_bounded;
        ] );
      ( "fair interleave",
        [
          Alcotest.test_case "round robin" `Quick test_interleave_round_robin;
          Alcotest.test_case "edge cases" `Quick test_interleave_edge_cases;
          q prop_interleave_preserves_elements;
        ] );
      ( "admission",
        [
          Alcotest.test_case "volumes are independent" `Quick test_qos_volumes_independent;
          Alcotest.test_case "per-volume verdict stats" `Quick test_qos_vol_verdicts;
          q prop_qos_replay_identity;
        ] );
      ( "arrivals",
        [
          q prop_arrival_same_seed_identity;
          q prop_arrival_gaps_sane;
          Alcotest.test_case "mean rates" `Quick test_arrival_mean_rates;
          Alcotest.test_case "parameter validation" `Quick test_arrival_validation;
          Alcotest.test_case "Zipf population" `Quick test_population;
        ] );
    ]
