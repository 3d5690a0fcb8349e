type t = {
  lo : float;
  log_lo : float;
  scale : float; (* buckets per natural-log unit *)
  counts : int array;
  mutable n : int;
  mutable sum : float;
  mutable max_seen : float;
}

let create ?(lo = 1.0) ?(hi = 1e8) ?(buckets_per_decade = 20) () =
  assert (lo > 0.0 && hi > lo && buckets_per_decade > 0);
  let decades = log10 (hi /. lo) in
  let nbuckets = int_of_float (ceil (decades *. float_of_int buckets_per_decade)) + 1 in
  {
    lo;
    log_lo = log lo;
    scale = float_of_int buckets_per_decade /. log 10.0;
    counts = Array.make nbuckets 0;
    n = 0;
    sum = 0.0;
    max_seen = 0.0;
  }

let lo t = t.lo
let counts t = Array.copy t.counts

let buckets_per_decade t = int_of_float (Float.round (t.scale *. log 10.0))

(* Record header + 7 fields, array header + one word per bucket. *)
let approx_bytes t = 8 * (8 + 1 + Array.length t.counts)

let of_counts ~lo ~buckets_per_decade ~counts ~sum ~max_seen =
  if lo <= 0.0 || buckets_per_decade <= 0 || Array.length counts = 0 then
    invalid_arg "Histogram.of_counts";
  {
    lo;
    log_lo = log lo;
    scale = float_of_int buckets_per_decade /. log 10.0;
    counts = Array.copy counts;
    n = Array.fold_left ( + ) 0 counts;
    sum;
    max_seen;
  }

let copy t = { t with counts = Array.copy t.counts }

let bucket_of t v =
  if v <= t.lo then 0
  else
    let b = int_of_float ((log v -. t.log_lo) *. t.scale) in
    if b >= Array.length t.counts then Array.length t.counts - 1 else b

(* Geometric center of bucket [b]; used for interpolation and the mean of
   clamped samples. *)
let value_of t b = exp (t.log_lo +. ((float_of_int b +. 0.5) /. t.scale))

let add t v =
  let b = bucket_of t v in
  t.counts.(b) <- t.counts.(b) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum +. v;
  if v > t.max_seen then t.max_seen <- v

let count t = t.n
let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n
let sum t = t.sum
let max_seen t = t.max_seen

let quantile t q =
  if t.n = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let target = q *. float_of_int t.n in
    let rec scan b acc =
      if b >= Array.length t.counts then t.max_seen
      else
        let acc' = acc + t.counts.(b) in
        if float_of_int acc' >= target then Float.min (value_of t b) t.max_seen
        else scan (b + 1) acc'
    in
    scan 0 0
  end

let percentile t p = quantile t (p /. 100.0)

let merge_into ~dst src =
  if Array.length dst.counts <> Array.length src.counts then
    invalid_arg "Histogram.merge_into: shape mismatch";
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.n <- dst.n + src.n;
  dst.sum <- dst.sum +. src.sum;
  if src.max_seen > dst.max_seen then dst.max_seen <- src.max_seen

let merge a b =
  let m = copy a in
  merge_into ~dst:m b;
  m

let delta ~baseline cur =
  if Array.length baseline.counts <> Array.length cur.counts then
    invalid_arg "Histogram.delta: shape mismatch";
  let counts =
    Array.init (Array.length cur.counts) (fun i ->
        let d = cur.counts.(i) - baseline.counts.(i) in
        if d < 0 then invalid_arg "Histogram.delta: baseline is not a prefix of cur";
        d)
  in
  (* max_seen cannot be windowed from cumulative state; the cumulative
     max is kept as an upper bound (quantile only uses it as a cap). *)
  {
    cur with
    counts;
    n = cur.n - baseline.n;
    sum = cur.sum -. baseline.sum;
    max_seen = cur.max_seen;
  }
