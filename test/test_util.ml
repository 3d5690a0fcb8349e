(* Unit and property tests for Wafl_util. *)

open Wafl_util

let check_float = Alcotest.(check (float 1e-9))

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  Alcotest.(check bool) "different streams" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_split_independent () =
  let a = Rng.create ~seed:7 in
  let c = Rng.split a in
  let v1 = Rng.bits64 c in
  (* Drawing more from the parent must not affect the child's stream. *)
  let a2 = Rng.create ~seed:7 in
  let c2 = Rng.split a2 in
  ignore (Rng.bits64 a2);
  ignore (Rng.bits64 a2);
  Alcotest.(check int64) "child unaffected" v1 (Rng.bits64 c2 |> fun _ -> v1);
  ignore v1

let test_rng_copy () =
  let a = Rng.create ~seed:9 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_int_range () =
  let r = Rng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_in_range () =
  let r = Rng.create ~seed:4 in
  for _ = 1 to 10_000 do
    let v = Rng.int_in r 5 9 in
    Alcotest.(check bool) "in range" true (v >= 5 && v <= 9)
  done

let test_rng_int_covers () =
  let r = Rng.create ~seed:5 in
  let seen = Array.make 8 false in
  for _ = 1 to 1_000 do
    seen.(Rng.int r 8) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_rng_float_range () =
  let r = Rng.create ~seed:6 in
  for _ = 1 to 10_000 do
    let v = Rng.float r 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:8 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:10.0
  done;
  let m = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean ~ 10 (got %f)" m)
    true
    (m > 9.5 && m < 10.5)

let test_rng_shuffle_permutation () =
  let r = Rng.create ~seed:11 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

(* --- Histogram --- *)

let test_histogram_quantiles () =
  let h = Histogram.create () in
  for i = 1 to 1000 do
    Histogram.add h (float_of_int i)
  done;
  let p50 = Histogram.percentile h 50.0 in
  let p99 = Histogram.percentile h 99.0 in
  Alcotest.(check bool)
    (Printf.sprintf "p50 ~ 500 (got %f)" p50)
    true
    (p50 > 440.0 && p50 < 560.0);
  Alcotest.(check bool)
    (Printf.sprintf "p99 ~ 990 (got %f)" p99)
    true
    (p99 > 900.0 && p99 <= 1000.0)

let test_histogram_empty () =
  let h = Histogram.create () in
  check_float "quantile of empty" 0.0 (Histogram.quantile h 0.5);
  Alcotest.(check int) "count" 0 (Histogram.count h)

let test_histogram_mean_exact () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 10.0; 20.0; 30.0 ];
  check_float "mean is exact (tracked outside buckets)" 20.0 (Histogram.mean h)

let test_histogram_clamp () =
  let h = Histogram.create ~lo:1.0 ~hi:100.0 () in
  Histogram.add h 0.001;
  Histogram.add h 1e9;
  Alcotest.(check int) "both counted" 2 (Histogram.count h);
  Alcotest.(check bool) "max quantile bounded by max seen" true
    (Histogram.quantile h 1.0 <= 1e9)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  for i = 1 to 500 do
    Histogram.add a (float_of_int i)
  done;
  for i = 501 to 1000 do
    Histogram.add b (float_of_int i)
  done;
  Histogram.merge_into ~dst:a b;
  Alcotest.(check int) "count" 1000 (Histogram.count a);
  let p50 = Histogram.percentile a 50.0 in
  Alcotest.(check bool) "merged p50" true (p50 > 440.0 && p50 < 560.0)

let prop_histogram_quantile_monotone =
  QCheck.Test.make ~name:"histogram quantiles are monotone" ~count:100
    QCheck.(list_of_size Gen.(1 -- 200) (float_range 1.0 1e6))
    (fun xs ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) xs;
      let qs = [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.99 ] in
      let vs = List.map (Histogram.quantile h) qs in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b && mono rest
        | _ -> true
      in
      mono vs)

let prop_histogram_quantile_brackets =
  QCheck.Test.make ~name:"histogram p0/p100 bracket the data" ~count:100
    QCheck.(list_of_size Gen.(1 -- 200) (float_range 10.0 1e5))
    (fun xs ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) xs;
      let mx = List.fold_left Float.max neg_infinity xs in
      Histogram.quantile h 1.0 <= mx +. 1e-9)

let test_histogram_empty_percentiles () =
  let h = Histogram.create () in
  List.iter
    (fun p -> check_float (Printf.sprintf "p%.0f of empty is 0" p) 0.0 (Histogram.percentile h p))
    [ 0.0; 50.0; 99.0; 100.0 ]

let test_histogram_one_sample () =
  (* With a single sample every rank-selecting percentile lands in the
     sample's bucket, so the reported value (the bucket's geometric
     center, capped at max_seen) is within one bucket width — about 6%
     at 20 buckets/decade — of the sample.  p0 has rank 0 so it reports
     the bottom of the value range, not the sample. *)
  let h = Histogram.create () in
  Histogram.add h 137.0;
  let p50 = Histogram.percentile h 50.0 in
  List.iter
    (fun p ->
      let v = Histogram.percentile h p in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f of one sample within bucket resolution" p)
        true
        (v = p50 && Float.abs (v -. 137.0) /. 137.0 < 0.06 && v <= Histogram.max_seen h))
    [ 50.0; 99.0; 100.0 ];
  let p0 = Histogram.percentile h 0.0 in
  Alcotest.(check bool) "p0 within (0, sample]" true (p0 > 0.0 && p0 <= 137.0);
  check_float "mean of one sample" 137.0 (Histogram.mean h)

let test_histogram_clamp_percentiles () =
  (* Below-range and above-range samples land in the edge buckets but
     percentiles stay within [max_seen]. *)
  let h = Histogram.create ~lo:10.0 ~hi:1000.0 () in
  Histogram.add h 0.001;
  Histogram.add h 1e9;
  Alcotest.(check int) "clamped samples counted" 2 (Histogram.count h);
  Alcotest.(check bool) "p100 caps at max_seen" true (Histogram.percentile h 100.0 <= 1e9);
  Alcotest.(check bool) "p0 positive" true (Histogram.percentile h 0.0 > 0.0)

(* Merging two histograms must be bucket-exact equivalent to one
   histogram of the concatenated samples: identical counts array, sum
   and max (the basis for the telemetry rollup's cross-shard merge). *)
let prop_histogram_merge_is_concat =
  QCheck.Test.make ~name:"histogram merge = concatenation, bucket-exact" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 100) (float_range 0.5 1e7))
        (list_of_size Gen.(0 -- 100) (float_range 0.5 1e7)))
    (fun (xs, ys) ->
      let a = Histogram.create () and b = Histogram.create () and c = Histogram.create () in
      List.iter (Histogram.add a) xs;
      List.iter (Histogram.add b) ys;
      List.iter (Histogram.add c) (xs @ ys);
      let m = Histogram.merge a b in
      Histogram.counts m = Histogram.counts c
      && Histogram.count m = Histogram.count c
      && Float.abs (Histogram.sum m -. Histogram.sum c) <= 1e-6 *. (1.0 +. Histogram.sum c)
      && Histogram.max_seen m = Histogram.max_seen c)

(* Delta against a baseline recovers exactly the samples added after the
   baseline copy — the rollup's per-window sketch extraction. *)
let prop_histogram_delta_recovers_tail =
  QCheck.Test.make ~name:"histogram delta recovers post-baseline samples" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 100) (float_range 0.5 1e7))
        (list_of_size Gen.(0 -- 100) (float_range 0.5 1e7)))
    (fun (xs, ys) ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) xs;
      let baseline = Histogram.copy h in
      List.iter (Histogram.add h) ys;
      let d = Histogram.delta ~baseline h in
      let tail = Histogram.create () in
      List.iter (Histogram.add tail) ys;
      Histogram.counts d = Histogram.counts tail && Histogram.count d = List.length ys)

(* --- Bitops --- *)

let test_popcount_cases () =
  Alcotest.(check int) "zero" 0 (Bitops.popcount 0L);
  Alcotest.(check int) "all ones" 64 (Bitops.popcount (-1L));
  Alcotest.(check int) "one bit" 1 (Bitops.popcount 0x8000000000000000L);
  Alcotest.(check int) "alternating" 32 (Bitops.popcount 0x5555555555555555L)

let test_ctz_matches_reference () =
  let reference x =
    let rec go i =
      if Int64.logand (Int64.shift_right_logical x i) 1L = 1L then i else go (i + 1)
    in
    go 0
  in
  for i = 0 to 63 do
    Alcotest.(check int)
      (Printf.sprintf "single bit %d" i)
      i
      (Bitops.ctz (Int64.shift_left 1L i))
  done;
  let r = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let x = Rng.bits64 r in
    if x <> 0L then Alcotest.(check int) "random word" (reference x) (Bitops.ctz x)
  done

let test_find_first_zero () =
  Alcotest.(check int) "empty word" 0 (Bitops.find_first_zero 0L);
  Alcotest.(check int) "full word" (-1) (Bitops.find_first_zero (-1L));
  Alcotest.(check int) "bit 0 used" 1 (Bitops.find_first_zero 1L);
  Alcotest.(check int) "low 63 used" 63 (Bitops.find_first_zero Int64.max_int)

let test_find_next_zero () =
  Alcotest.(check int) "from 10 in empty" 10 (Bitops.find_next_zero 0L 10);
  Alcotest.(check int) "past end" (-1) (Bitops.find_next_zero 0L 64);
  Alcotest.(check int) "full word" (-1) (Bitops.find_next_zero (-1L) 0);
  (* Word with only bit 5 free. *)
  let w = Bitops.clear (-1L) 5 in
  Alcotest.(check int) "exactly bit 5" 5 (Bitops.find_next_zero w 0);
  Alcotest.(check int) "after bit 5" (-1) (Bitops.find_next_zero w 6)

let test_bit_get_set_clear () =
  let w = Bitops.set 0L 17 in
  Alcotest.(check bool) "set" true (Bitops.get w 17);
  Alcotest.(check bool) "others untouched" false (Bitops.get w 16);
  let w = Bitops.clear w 17 in
  Alcotest.(check bool) "cleared" false (Bitops.get w 17)

let prop_popcount_set_increments =
  QCheck.Test.make ~name:"setting a clear bit increments popcount" ~count:500
    QCheck.(pair int64 (int_bound 63))
    (fun (w, i) ->
      if Bitops.get w i then Bitops.popcount (Bitops.clear w i) = Bitops.popcount w - 1
      else Bitops.popcount (Bitops.set w i) = Bitops.popcount w + 1)

let prop_find_first_zero_correct =
  QCheck.Test.make ~name:"find_first_zero returns lowest clear bit" ~count:500 QCheck.int64
    (fun w ->
      match Bitops.find_first_zero w with
      | -1 -> w = -1L
      | i ->
          (not (Bitops.get w i))
          && (let rec lower j = j >= i || (Bitops.get w j && lower (j + 1)) in
              lower 0))

(* --- Intvec --- *)

(* Block-map / container images: a sparse vector (holes read -1) packed
   over a random window, one window straddling the end and one starting
   beyond [length]; decoding must give back the [get] loop exactly. *)
let prop_intvec_extract_roundtrip =
  QCheck.Test.make ~name:"extract matches get loop" ~count:200
    QCheck.(
      triple
        (list_of_size Gen.(0 -- 60) (pair (int_bound 700) (int_range (-1) 1_000_000)))
        (int_bound 800) (int_bound 600))
    (fun (writes, pos, len) ->
      let v = Intvec.create ~default:(-1) () in
      List.iter (fun (i, x) -> Intvec.set v i x) writes;
      let n = Intvec.length v in
      List.for_all
        (fun (pos, len) ->
          let img = Intvec.extract v ~pos ~len in
          Packed.length img = len
          && List.for_all
               (fun i -> Packed.get img i = Intvec.get v (pos + i))
               (List.init len Fun.id))
        [ (pos, len); (max 0 (n - 3), 8); (n + 5, 4) ])

(* Activemap images: raw 64-bit words, about half with bit 63 set (which
   no OCaml [int] can hold), packed from an interior range. *)
let prop_packed_words_roundtrip =
  QCheck.Test.make ~name:"bitmap words round-trip" ~count:200
    QCheck.(pair (list (pair bool int64)) (pair small_nat small_nat))
    (fun (cells, (a, b)) ->
      let top_bit (top, w) =
        if top then Int64.logor w Int64.min_int else Int64.logand w Int64.max_int
      in
      let words = Array.of_list (List.map top_bit cells) in
      let n = Array.length words in
      (* laid out as a bitmap keeps them: 8 native-order bytes apiece *)
      let src = Slab.create (8 * n) in
      Array.iteri (fun i w -> Slab.set64 src (8 * i) w) words;
      let pos = if n = 0 then 0 else a mod n in
      let len = if n - pos = 0 then 0 else b mod (n - pos + 1) in
      let img = Packed.of_words src ~pos ~len in
      Packed.word_count img = len
      && List.for_all (fun i -> Packed.get_int64 img i = words.(pos + i)) (List.init len Fun.id))

let test_packed_bad_ranges () =
  let v = Intvec.create ~default:(-1) () in
  Alcotest.check_raises "negative pos rejected" (Invalid_argument "Packed.of_entries")
    (fun () -> ignore (Intvec.extract v ~pos:(-1) ~len:2));
  Alcotest.check_raises "words past the end rejected" (Invalid_argument "Packed.of_words")
    (fun () -> ignore (Packed.of_words (Slab.create 16) ~pos:1 ~len:2))


let test_intvec_defaults () =
  let v = Intvec.create ~default:(-1) () in
  Alcotest.(check int) "empty length" 0 (Intvec.length v);
  Alcotest.(check int) "default on read past end" (-1) (Intvec.get v 100);
  Intvec.set v 5 42;
  Alcotest.(check int) "value" 42 (Intvec.get v 5);
  Alcotest.(check int) "hole before it" (-1) (Intvec.get v 4);
  Alcotest.(check int) "length tracks highest write" 6 (Intvec.length v)

let test_intvec_growth () =
  let v = Intvec.create ~initial_capacity:2 ~default:0 () in
  for i = 0 to 999 do
    Intvec.set v i (i * 3)
  done;
  Alcotest.(check int) "grown length" 1000 (Intvec.length v);
  Alcotest.(check int) "early value survives growth" 0 (Intvec.get v 0);
  Alcotest.(check int) "late value" 2997 (Intvec.get v 999)

let test_intvec_iteri_set () =
  let v = Intvec.create ~default:(-1) () in
  Intvec.set v 3 30;
  Intvec.set v 7 70;
  Intvec.set v 5 (-1);
  (* default value: not reported *)
  let seen = ref [] in
  Intvec.iteri_set v (fun i x -> seen := (i, x) :: !seen);
  Alcotest.(check (list (pair int int))) "only non-default" [ (3, 30); (7, 70) ]
    (List.rev !seen)

let test_intvec_copy_independent () =
  let v = Intvec.create ~default:0 () in
  Intvec.set v 1 11;
  let w = Intvec.copy v in
  Intvec.set w 1 99;
  Alcotest.(check int) "original unchanged" 11 (Intvec.get v 1);
  Alcotest.(check int) "copy changed" 99 (Intvec.get w 1)

let test_intvec_clear () =
  let v = Intvec.create ~initial_capacity:2 ~default:(-1) () in
  List.iter (fun i -> Intvec.set v (Intvec.length v) (i * 10)) [ 1; 2; 3; 4; 5 ];
  Intvec.clear v;
  Alcotest.(check int) "empty after clear" 0 (Intvec.length v);
  Alcotest.(check int) "old slot reads default" (-1) (Intvec.get v 2);
  Alcotest.(check int) "extract sees defaults" (-1)
    (Packed.get (Intvec.extract v ~pos:0 ~len:5) 4);
  Intvec.set v 0 7;
  Alcotest.(check int) "reusable" 1 (Intvec.length v)

let test_intvec_negative_index () =
  let v = Intvec.create ~default:0 () in
  Alcotest.check_raises "negative get" (Invalid_argument "Intvec.get: negative index")
    (fun () -> ignore (Intvec.get v (-1)))

let prop_intvec_models_assoc =
  QCheck.Test.make ~name:"intvec behaves like a sparse map" ~count:200
    QCheck.(list_of_size Gen.(1 -- 100) (pair (int_bound 500) (int_range (-100) 100)))
    (fun writes ->
      let v = Intvec.create ~default:(-1000) () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (i, x) ->
          Intvec.set v i x;
          Hashtbl.replace model i x)
        writes;
      List.for_all
        (fun i ->
          Intvec.get v i = Option.value ~default:(-1000) (Hashtbl.find_opt model i))
        (List.init 501 Fun.id))

(* Entries are 32 bits wide: the two ends of the range, and -1 (a hole
   or an unmapped VBN), must survive the vector and its images, and one
   past either end must be refused. *)
let wide = 1 lsl 31
let edges = [ -wide; -1; 0; wide - 1 ]

let prop_intvec_models_edges =
  QCheck.Test.make ~name:"intvec keeps 32-bit edge values" ~count:200
    QCheck.(
      list_of_size Gen.(1 -- 100)
        (pair (int_bound 300) (oneof [ oneofl edges; int_range (-wide) (wide - 1) ])))
    (fun writes ->
      let v = Intvec.create ~default:(-1) () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (i, x) ->
          Intvec.set v i x;
          Hashtbl.replace model i x)
        writes;
      let img = Intvec.extract v ~pos:0 ~len:301 in
      List.for_all
        (fun i ->
          let want = Option.value ~default:(-1) (Hashtbl.find_opt model i) in
          Intvec.get v i = want && Packed.get img i = want)
        (List.init 301 Fun.id))

let test_intvec_rejects_wide () =
  Alcotest.(check (pair int int)) "entry range" (-wide, wide - 1)
    (Packed.min_entry, Packed.max_entry);
  let v = Intvec.create ~default:(-1) () in
  List.iter
    (fun x ->
      Alcotest.check_raises (Printf.sprintf "set %d" x)
        (Invalid_argument "Intvec.set: value outside [-2^31, 2^31)") (fun () -> Intvec.set v 3 x))
    [ wide; -wide - 1 ];
  Alcotest.(check int) "nothing written" 0 (Intvec.length v);
  Alcotest.check_raises "wide default"
    (Invalid_argument "Intvec.create: default outside [-2^31, 2^31)") (fun () ->
      ignore (Intvec.create ~default:wide ()))

let test_packed_entry_edges () =
  let a = Array.of_list edges in
  let v = Intvec.create ~initial_capacity:2 ~default:(wide - 1) () in
  Array.iteri (Intvec.set v) a;
  let img = Intvec.extract v ~pos:0 ~len:6 in
  Alcotest.(check (list int)) "extract round trip, default past the end"
    (edges @ [ wide - 1; wide - 1 ])
    (List.init (Packed.length img) (Packed.get img));
  let v = Intvec.create ~initial_capacity:2 ~default:(-wide) () in
  Array.iteri (Intvec.set v) a;
  let img = Intvec.extract v ~pos:1 ~len:5 in
  Alcotest.(check (list int)) "interior extract, low default past the end"
    [ -1; 0; wide - 1; -wide; -wide ]
    (List.init (Packed.length img) (Packed.get img));
  List.iter
    (fun x ->
      Alcotest.check_raises (Printf.sprintf "of_entries default %d" x)
        (Invalid_argument "Packed.of_entries") (fun () ->
          ignore (Packed.of_entries Slab.empty ~pos:0 ~len:2 ~default:x)))
    [ wide; -wide - 1 ]

(* --- Slab --- *)

let test_slab_get_set () =
  let b = Slab.create 12 in
  Alcotest.(check int) "length" 12 (Slab.length b);
  Alcotest.(check int) "empty" 0 (Slab.length Slab.empty);
  (* Unaligned offsets, sign-extended on read. *)
  Slab.set32 b 1 Packed.min_entry;
  Alcotest.(check int) "-2^31" Packed.min_entry (Slab.get32 b 1);
  Slab.set32 b 5 Packed.max_entry;
  Alcotest.(check int) "2^31 - 1" Packed.max_entry (Slab.get32 b 5);
  Alcotest.(check int) "-1" (-1) (Slab.set32 b 0 (-1); Slab.get32 b 0);
  Alcotest.(check int) "low 32 bits kept" (-1) (Slab.set32 b 8 0xFFFF_FFFF; Slab.get32 b 8);
  List.iter
    (fun w ->
      Slab.set64 b 3 w;
      Alcotest.(check int64) (Int64.to_string w) w (Slab.get64 b 3);
      Alcotest.(check int64) "unchecked read" w (Slab.unsafe_get64 b 3))
    [ 0L; -1L; Int64.min_int; Int64.max_int; 0x0123_4567_89ab_cdefL ];
  Alcotest.check_raises "read past the end" (Invalid_argument "index out of bounds") (fun () ->
      ignore (Slab.get64 b 5));
  Alcotest.check_raises "write past the end" (Invalid_argument "index out of bounds") (fun () ->
      Slab.set32 b 9 0)

(* The 32-bit cells of a slab, at offsets 0, 4, 8, ...: endian-neutral
   views of what fill and blit moved. *)
let cells b = List.init (Slab.length b / 4) (fun k -> Slab.get32 b (4 * k))

let slab_of_cells l =
  let b = Slab.create (4 * List.length l) in
  List.iteri (fun k v -> Slab.set32 b (4 * k) v) l;
  b

let test_slab_fill_blit () =
  let a = 0x6161_6161 and z = 0x7a7a_7a7a in
  let b = Slab.make 24 'a' in
  Alcotest.(check (list int)) "make" [ a; a; a; a; a; a ] (cells b);
  (* 12 bytes from offset 4: one word and a 4-byte tail. *)
  Slab.fill b ~pos:4 ~len:12 'z';
  Alcotest.(check (list int)) "fill a range" [ a; z; z; z; a; a ] (cells b);
  (* Two odd bytes, mid-cell: a z z a reads the same either way round. *)
  Slab.fill b ~pos:21 ~len:2 'z';
  Alcotest.(check int) "fill odd bytes" 0x617a_7a61 (Slab.get32 b 20);
  Alcotest.check_raises "fill past the end" (Invalid_argument "Slab.fill") (fun () ->
      Slab.fill b ~pos:10 ~len:15 'x');
  let src = slab_of_cells [ 1; 2; 3; 4; 5; 6; 7; 8 ] and dst = Slab.make 28 '\000' in
  Slab.blit src 4 dst 8 12;
  Alcotest.(check (list int)) "across slabs" [ 0; 0; 2; 3; 4; 0; 0 ] (cells dst);
  Alcotest.check_raises "blit past the end" (Invalid_argument "Slab.blit") (fun () ->
      Slab.blit src 0 dst 20 12);
  (* Within one slab, both directions, overlapping by less than a word:
     20 bytes is two words and a 4-byte tail. *)
  let s = slab_of_cells [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  Slab.blit s 0 s 4 20;
  Alcotest.(check (list int)) "overlap upward" [ 1; 1; 2; 3; 4; 5; 7; 8 ] (cells s);
  let s = slab_of_cells [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  Slab.blit s 4 s 0 20;
  Alcotest.(check (list int)) "overlap downward" [ 2; 3; 4; 5; 6; 6; 7; 8 ] (cells s);
  let c = Slab.copy s in
  Slab.fill s ~pos:0 ~len:32 '\000';
  Alcotest.(check (list int)) "copy is independent" [ 2; 3; 4; 5; 6; 6; 7; 8 ] (cells c)

(* A full block-map image's 512 entries live in the slab: the heap holds
   only the slab's custom block. *)
let test_slab_image_off_heap () =
  let v = Intvec.create ~default:(-1) () in
  for i = 0 to 511 do
    Intvec.set v i i
  done;
  let img = Intvec.extract v ~pos:0 ~len:512 in
  Alcotest.(check int) "slab bytes" 2048 (Packed.bytes img);
  let words = Obj.reachable_words (Obj.repr img) in
  if words > 8 then Alcotest.failf "a 2 KiB image costs %d heap words" words

(* --- Table --- *)

let test_table_render () =
  let t = Table.create ~headers:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "contains header" true
    (String.length s > 0 && String.sub s 0 4 = "name");
  (* Both rows present. *)
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "row alpha" true (contains "alpha");
  Alcotest.(check bool) "row 22" true (contains "22")

let test_table_short_row () =
  let t = Table.create ~headers:[ "a"; "b"; "c" ] in
  Table.add_row t [ "x" ];
  Alcotest.(check bool) "renders" true (String.length (Table.render t) > 0)

let test_table_too_long_row () =
  let t = Table.create ~headers:[ "a" ] in
  Alcotest.check_raises "too many cells" (Invalid_argument "Table.add_row: too many cells")
    (fun () -> Table.add_row t [ "x"; "y" ])

let test_table_cells () =
  Alcotest.(check string) "cell_f" "3.14" (Table.cell_f 3.14159);
  Alcotest.(check string) "cell_f1" "3.1" (Table.cell_f1 3.14159);
  Alcotest.(check string) "cell_i" "42" (Table.cell_i 42);
  Alcotest.(check string) "cell_pct" "+27.4%" (Table.cell_pct 27.4);
  Alcotest.(check string) "cell_pct negative" "-3.0%" (Table.cell_pct (-3.0))

let test_intvec_bindings () =
  let v = Intvec.create ~initial_capacity:2 ~default:(-1) () in
  List.iter (fun (i, x) -> Intvec.set v i x) [ (7, 70); (0, 0); (3, 30); (5, -1) ];
  Alcotest.(check (array (pair int int))) "non-default pairs, ascending"
    [| (0, 0); (3, 30); (7, 70) |]
    (Intvec.bindings v);
  Intvec.clear v;
  Alcotest.(check int) "empty after clear" 0 (Array.length (Intvec.bindings v))

(* --- Dense_set / Int_table --- *)

(* Each [None] step checks the set and clears it; [Some k] adds k. *)
let prop_dense_set_sorted_unique =
  QCheck.Test.make ~name:"dense set matches a sorted-unique model" ~count:300
    QCheck.(list_of_size Gen.(0 -- 300) (option ~ratio:0.95 (int_bound 500)))
    (fun ops ->
      let d = Dense_set.create () in
      let added = ref [] in
      let agrees () =
        let want = List.sort_uniq Int.compare !added in
        Dense_set.elements d = want
        && Dense_set.elements_desc d = List.rev want
        && Dense_set.cardinal d = List.length want
        && List.for_all (fun k -> Dense_set.mem d k = List.mem k want) (List.init 502 (fun i -> i - 1))
      in
      List.for_all
        (function
          | None ->
              let ok = agrees () in
              Dense_set.clear d;
              added := [];
              ok
          | Some k ->
              Dense_set.add d k;
              added := k :: !added;
              true)
        ops
      && agrees ())

let test_dense_set_negative () =
  Alcotest.check_raises "negative member" (Invalid_argument "Dense_set.add: negative member")
    (fun () -> Dense_set.add (Dense_set.create ()) (-1))

(* Against an assoc-list model: [None] clears, [Some (k, v)] binds. *)
let prop_int_table_models_assoc =
  QCheck.Test.make ~name:"int table matches an assoc model" ~count:300
    QCheck.(list_of_size Gen.(0 -- 400) (option ~ratio:0.97 (pair (int_bound 3000) small_int)))
    (fun ops ->
      let t = Int_table.create () in
      let model = ref [] in
      let agrees () =
        let want = List.sort compare !model in
        Int_table.bindings t = want
        && Int_table.length t = List.length want
        && List.for_all (fun (k, v) -> Int_table.find t k = v) want
        && List.for_all
             (fun k -> Int_table.find_opt t k = List.assoc_opt k want && Int_table.mem t k = List.mem_assoc k want)
             (List.init 40 (fun i -> i * 75))
      in
      List.for_all
        (function
          | None ->
              let ok = agrees () in
              Int_table.clear t;
              model := [];
              ok
          | Some (k, v) ->
              Int_table.replace t k v;
              model := (k, v) :: List.remove_assoc k !model;
              true)
        ops
      && agrees ())

(* Against a Hashtbl model: [(k, Some v)] binds, [(k, None)] removes.
   Keys collide in a handful of slots, so runs wrap the table's end and
   removals shift long runs back. *)
let prop_word_table_models_hashtbl =
  QCheck.Test.make ~name:"word table matches a Hashtbl model" ~count:300
    QCheck.(
      list_of_size Gen.(0 -- 500) (pair (int_bound 300) (option ~ratio:0.6 (map Int64.of_int int))))
    (fun ops ->
      let t = Word_table.create () in
      let model = Hashtbl.create 16 in
      let agrees () =
        Word_table.length t = Hashtbl.length model
        && List.for_all
             (fun k ->
               Word_table.mem t k = Hashtbl.mem model k
               && (match Hashtbl.find_opt model k with
                  | Some v -> Word_table.find t k = v
                  | None -> (
                      match Word_table.find t k with _ -> false | exception Not_found -> true)))
             (List.init 302 (fun i -> i - 1))
      in
      List.for_all
        (fun (k, v) ->
          (match v with
          | Some v ->
              Word_table.replace t k v;
              Hashtbl.replace model k v
          | None ->
              Word_table.remove t k;
              Hashtbl.remove model k);
          agrees ())
        ops)

let test_word_table_negative () =
  Alcotest.check_raises "negative key" (Invalid_argument "Word_table.replace: negative key")
    (fun () -> Word_table.replace (Word_table.create ()) (-1) 0L)

(* --- Fifo --- *)

let pop_n q n = List.init n (fun _ -> Fifo.pop q)

(* The ring wraps, doubles from its first 8 slots, halves once it is at
   most one-eighth full, and hands elements back in push order through
   all three. *)
let test_fifo_order () =
  let q = Fifo.create ~dummy:(-1) in
  Alcotest.(check int) "no slots before the first push" 0 (Fifo.capacity q);
  List.iter (Fifo.push q) [ 0; 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int)) "front" [ 0; 1; 2; 3 ] (pop_n q 4);
  for i = 6 to 9 do
    Fifo.push q i
  done;
  Alcotest.(check int) "wrapped without growing" 8 (Fifo.capacity q);
  for i = 10 to 999 do
    Fifo.push q i
  done;
  Alcotest.(check int) "grown" 1024 (Fifo.capacity q);
  Alcotest.(check int) "peek" 4 (Fifo.peek q);
  Alcotest.(check (list int)) "through growth" (List.init 900 (fun i -> i + 4)) (pop_n q 900);
  Alcotest.(check bool) "shrunk while draining" true (Fifo.capacity q < 1024);
  for i = 1000 to 1099 do
    Fifo.push q i
  done;
  Alcotest.(check (list int)) "through shrink" (List.init 196 (fun i -> i + 904))
    (pop_n q (Fifo.length q));
  Alcotest.(check bool) "empty" true (Fifo.is_empty q);
  Alcotest.(check int) "back to the smallest ring" 8 (Fifo.capacity q);
  Alcotest.check_raises "pop empty" (Invalid_argument "Fifo.pop: empty") (fun () ->
      ignore (Fifo.pop q));
  Alcotest.check_raises "peek empty" (Invalid_argument "Fifo.peek: empty") (fun () ->
      ignore (Fifo.peek q))

(* Bursts of pushes and pops against a list model. *)
let prop_fifo_models_list =
  QCheck.Test.make ~name:"fifo matches a list model" ~count:300
    QCheck.(list_of_size Gen.(0 -- 60) (pair bool (int_bound 300)))
    (fun bursts ->
      let q = Fifo.create ~dummy:(-1) and model = ref [] and next = ref 0 in
      List.for_all
        (fun (is_push, n) ->
          if is_push then begin
            for _ = 1 to n do
              Fifo.push q !next;
              model := !model @ [ !next ];
              incr next
            done;
            true
          end
          else
            let k = min n (List.length !model) in
            let want = List.filteri (fun i _ -> i < k) !model in
            model := List.filteri (fun i _ -> i >= k) !model;
            pop_n q k = want
            && Fifo.length q = List.length !model
            && Fifo.capacity q <= max 8 (8 * Fifo.length q))
        bursts)

(* A drained ring keeps neither its elements nor its peak capacity. *)
let test_fifo_drain_bounded () =
  let q = Fifo.create ~dummy:"" in
  for i = 1 to 100_000 do
    Fifo.push q (string_of_int i)
  done;
  while not (Fifo.is_empty q) do
    ignore (Fifo.pop q)
  done;
  let words = Obj.reachable_words (Obj.repr q) in
  if words > 32 then Alcotest.failf "drained ring reaches %d words" words

(* Allocate an element out of line, so no register or stack slot of the
   test keeps it alive. *)
let[@inline never] push_watched q w i =
  let x = ref i in
  Weak.set w i (Some x);
  Fifo.push q x

let test_fifo_pop_releases () =
  let q = Fifo.create ~dummy:(ref (-1)) and w = Weak.create 3 in
  for i = 0 to 2 do
    push_watched q w i
  done;
  ignore (Sys.opaque_identity (Fifo.pop q));
  Gc.full_major ();
  Alcotest.(check bool) "popped element collected" false (Weak.check w 0);
  Alcotest.(check bool) "queued elements kept" true (Weak.check w 1 && Weak.check w 2);
  Alcotest.(check int) "rest in order" 1 !(Fifo.pop q)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests

let () =
  Alcotest.run "wafl_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic from seed" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int_in range" `Quick test_rng_int_in_range;
          Alcotest.test_case "int covers all values" `Quick test_rng_int_covers;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "exponential mean" `Slow test_rng_exponential_mean;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
        ] );
      ( "histogram",
        qsuite
          [
            prop_histogram_quantile_monotone;
            prop_histogram_quantile_brackets;
            prop_histogram_merge_is_concat;
            prop_histogram_delta_recovers_tail;
          ]
        @ [
            Alcotest.test_case "quantiles" `Quick test_histogram_quantiles;
            Alcotest.test_case "empty" `Quick test_histogram_empty;
            Alcotest.test_case "empty percentiles" `Quick test_histogram_empty_percentiles;
            Alcotest.test_case "one sample" `Quick test_histogram_one_sample;
            Alcotest.test_case "mean exact" `Quick test_histogram_mean_exact;
            Alcotest.test_case "clamping" `Quick test_histogram_clamp;
            Alcotest.test_case "clamped percentiles" `Quick test_histogram_clamp_percentiles;
            Alcotest.test_case "merge" `Quick test_histogram_merge;
          ] );
      ( "bitops",
        qsuite [ prop_popcount_set_increments; prop_find_first_zero_correct ]
        @ [
            Alcotest.test_case "popcount cases" `Quick test_popcount_cases;
            Alcotest.test_case "ctz vs reference" `Quick test_ctz_matches_reference;
            Alcotest.test_case "find_first_zero" `Quick test_find_first_zero;
            Alcotest.test_case "find_next_zero" `Quick test_find_next_zero;
            Alcotest.test_case "get/set/clear" `Quick test_bit_get_set_clear;
          ] );
      ( "intvec",
        [
          Alcotest.test_case "defaults and holes" `Quick test_intvec_defaults;
          Alcotest.test_case "growth" `Quick test_intvec_growth;
          Alcotest.test_case "iteri_set" `Quick test_intvec_iteri_set;
          QCheck_alcotest.to_alcotest ~verbose:false prop_intvec_extract_roundtrip;
          Alcotest.test_case "copy independence" `Quick test_intvec_copy_independent;
          Alcotest.test_case "clear" `Quick test_intvec_clear;
          Alcotest.test_case "bindings" `Quick test_intvec_bindings;
          Alcotest.test_case "negative index" `Quick test_intvec_negative_index;
          QCheck_alcotest.to_alcotest ~verbose:false prop_intvec_models_assoc;
          QCheck_alcotest.to_alcotest ~verbose:false prop_intvec_models_edges;
          Alcotest.test_case "32-bit values only" `Quick test_intvec_rejects_wide;
        ] );
      ( "dense_set",
        [
          QCheck_alcotest.to_alcotest ~verbose:false prop_dense_set_sorted_unique;
          Alcotest.test_case "negative member" `Quick test_dense_set_negative;
        ] );
      ("int_table", [ QCheck_alcotest.to_alcotest ~verbose:false prop_int_table_models_assoc ]);
      ( "fifo",
        [
          Alcotest.test_case "order through wrap, growth and shrink" `Quick test_fifo_order;
          QCheck_alcotest.to_alcotest ~verbose:false prop_fifo_models_list;
          Alcotest.test_case "drained ring is small" `Quick test_fifo_drain_bounded;
          Alcotest.test_case "pop releases the element" `Quick test_fifo_pop_releases;
        ] );
      ( "wordtable",
        [
          QCheck_alcotest.to_alcotest ~verbose:false prop_word_table_models_hashtbl;
          Alcotest.test_case "negative key" `Quick test_word_table_negative;
        ] );
      ( "slab",
        [
          Alcotest.test_case "32- and 64-bit get/set" `Quick test_slab_get_set;
          Alcotest.test_case "fill, blit, copy" `Quick test_slab_fill_blit;
          Alcotest.test_case "image bytes off the heap" `Quick test_slab_image_off_heap;
        ] );
      ( "packed",
        [
          QCheck_alcotest.to_alcotest ~verbose:false prop_packed_words_roundtrip;
          Alcotest.test_case "bad ranges rejected" `Quick test_packed_bad_ranges;
          Alcotest.test_case "entry edges round trip" `Quick test_packed_entry_edges;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "short rows pad" `Quick test_table_short_row;
          Alcotest.test_case "long rows rejected" `Quick test_table_too_long_row;
          Alcotest.test_case "cell formatting" `Quick test_table_cells;
        ] );
    ]
