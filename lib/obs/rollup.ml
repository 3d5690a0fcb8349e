module Engine = Wafl_sim.Engine
module Histogram = Wafl_util.Histogram

type config = {
  window_us : float;
  windows : int;
  vol_budget_bytes : int;
}

let default_config =
  {
    window_us = 100_000.0;
    windows = 8;
    vol_budget_bytes = 4096;
  }

type vol_row = {
  vr_writes : int;
  vr_admitted : int;
  vr_throttled : int;
  vr_shed : int;
  vr_completed : int;
  vr_backlog : int;
  vr_lat : Histogram.t;
}

type window = {
  w_seq : int;
  w_start : float;
  w_end : float;
  w_counters : (string * float) list;
  w_gauges : (string * float) list;
  w_sketches : (string * Histogram.t) list;
  w_vols : (int * vol_row) list;
}

type snapshot = { s_window_us : float; s_windows : window list }

(* One volume's slot, indexed by volume id.  The open-window counters
   restart at the volume's first feed in each window ([seq] tells whether
   they belong to the open one); the cumulative admitted/completed persist
   across windows so a quiet volume with outstanding backlog still gets a
   row. *)
type slot = {
  mutable seq : int;  (* window of the counters below; -1: not fed yet *)
  mutable a_writes : int;
  mutable a_admitted : int;
  mutable a_throttled : int;
  mutable a_shed : int;
  mutable a_completed : int;
  mutable a_lat : Histogram.t;
  mutable t_admitted : int;
  mutable t_completed : int;
}

type t = {
  eng : Engine.t;
  cfg : config;
  (* The names watched in the engine's registry ({!watch}): counters with
     their value at the previous seal, histograms with their contents then
     (None until the instrument exists). *)
  mutable counters : (string * float ref) list;
  mutable gauges : string list;
  mutable histos : (string * Histogram.t option ref) list;
  mutable seal_cbs : (t -> window -> unit) list;  (* reverse registration order *)
  mutable slots : slot option array;  (* by volume id *)
  mutable ring : window list;  (* newest first, length <= cfg.windows *)
  mutable cur_seq : int;  (* grid index of the open window *)
}

(* Latency sketch: 4 buckets per decade over [1, 1e7] µs. *)
let mk_lat () = Histogram.create ~lo:1.0 ~hi:1e7 ~buckets_per_decade:4 ()

(* Sealed row: record header + 7 fields; plus the latency sketch. *)
let vol_window_bytes = (8 * 8) + Histogram.approx_bytes (mk_lat ())

let seq_of cfg now = int_of_float (Float.floor (now /. cfg.window_us))

let create ?(config = default_config) eng =
  let cfg = config in
  if cfg.window_us <= 0.0 || cfg.windows <= 0 then invalid_arg "Rollup.create";
  if (cfg.windows + 1) * vol_window_bytes > cfg.vol_budget_bytes then
    invalid_arg "Rollup.create: ring exceeds vol_budget_bytes";
  {
    eng;
    cfg;
    counters = [];
    gauges = [];
    histos = [];
    seal_cbs = [];
    slots = [||];
    ring = [];
    cur_seq = seq_of cfg (Engine.now eng);
  }

let watch t ~counters ~gauges ~histograms =
  let names = List.sort_uniq String.compare in
  let reg = Engine.metrics t.eng in
  t.counters <- List.map (fun n -> (n, ref (Metrics.counter_value reg n))) (names counters);
  t.gauges <- names gauges;
  t.histos <- List.map (fun n -> (n, ref None)) (names histograms)

let on_seal t cb = t.seal_cbs <- cb :: t.seal_cbs

let seal_window t seq =
  let reg = Engine.metrics t.eng in
  let counters =
    List.map
      (fun (name, prev) ->
        let v = Metrics.counter_value reg name in
        let d = v -. !prev in
        prev := v;
        (name, d))
      t.counters
  in
  let gauges = List.map (fun name -> (name, Metrics.gauge_value reg name)) t.gauges in
  let sketches =
    List.filter_map
      (fun (name, prev) ->
        match Metrics.histo reg name with
        | None -> None
        | Some h ->
            let d =
              match !prev with
              | None -> Histogram.copy h  (* instrument created after [watch] *)
              | Some p -> Histogram.delta ~baseline:p h
            in
            prev := Some (Histogram.copy h);
            Some (name, d))
      t.histos
  in
  (* Rows in id order: volumes fed this window, and quiet ones with
     outstanding backlog (zero-activity rows). *)
  let vols = ref [] in
  for vol = Array.length t.slots - 1 downto 0 do
    match t.slots.(vol) with
    | Some s when s.seq = seq || s.t_admitted <> s.t_completed ->
        let fed = s.seq = seq in
        let n x = if fed then x else 0 in
        vols :=
          ( vol,
            {
              vr_writes = n s.a_writes;
              vr_admitted = n s.a_admitted;
              vr_throttled = n s.a_throttled;
              vr_shed = n s.a_shed;
              vr_completed = n s.a_completed;
              vr_backlog = s.t_admitted - s.t_completed;
              vr_lat = (if fed then s.a_lat else mk_lat ());
            } )
          :: !vols
    | _ -> ()
  done;
  let w =
    {
      w_seq = seq;
      w_start = float_of_int seq *. t.cfg.window_us;
      w_end = float_of_int (seq + 1) *. t.cfg.window_us;
      w_counters = counters;
      w_gauges = gauges;
      w_sketches = sketches;
      w_vols = !vols;
    }
  in
  t.ring <- w :: t.ring;
  (if List.length t.ring > t.cfg.windows then
     t.ring <- List.filteri (fun i _ -> i < t.cfg.windows) t.ring);
  List.iter (fun cb -> cb t w) (List.rev t.seal_cbs)

(* Lazy sealing: called from every write-side entry point.  The rollup's
   slots are touched by every client fiber, so declare them shared. *)
let roll t =
  Engine.probe_atomic t.eng ~shared:"obs.rollup";
  let now = Engine.now t.eng in
  let due = seq_of t.cfg now in
  while t.cur_seq < due do
    seal_window t t.cur_seq;
    t.cur_seq <- t.cur_seq + 1
  done

(* The volume's slot with its counters in the open window.  The sealed
   row kept the previous window's latency sketch, so a volume's first
   feed in a window starts a fresh one. *)
let slot_of t vol =
  if vol >= Array.length t.slots then begin
    let grown = Array.make (max (vol + 1) (2 * Array.length t.slots)) None in
    Array.blit t.slots 0 grown 0 (Array.length t.slots);
    t.slots <- grown
  end;
  let s =
    match t.slots.(vol) with
    | Some s -> s
    | None ->
        let s =
          { seq = -1; a_writes = 0; a_admitted = 0; a_throttled = 0; a_shed = 0;
            a_completed = 0; a_lat = mk_lat (); t_admitted = 0; t_completed = 0 }
        in
        t.slots.(vol) <- Some s;
        s
  in
  if s.seq <> t.cur_seq then begin
    if s.seq >= 0 then s.a_lat <- mk_lat ();
    s.seq <- t.cur_seq;
    s.a_writes <- 0;
    s.a_admitted <- 0;
    s.a_throttled <- 0;
    s.a_shed <- 0;
    s.a_completed <- 0
  end;
  s

let observe_write t ~vol lat =
  roll t;
  let s = slot_of t vol in
  s.a_writes <- s.a_writes + 1;
  Histogram.add s.a_lat lat

let count t ~vol kind =
  roll t;
  let s = slot_of t vol in
  match kind with
  | `Admitted ->
      s.a_admitted <- s.a_admitted + 1;
      s.t_admitted <- s.t_admitted + 1
  | `Throttled -> s.a_throttled <- s.a_throttled + 1
  | `Shed -> s.a_shed <- s.a_shed + 1
  | `Completed ->
      s.a_completed <- s.a_completed + 1;
      s.t_completed <- s.t_completed + 1

let recent t n = List.filteri (fun i _ -> i < n) t.ring

let snapshot t =
  roll t;
  { s_window_us = t.cfg.window_us; s_windows = List.rev t.ring }

(* --- JSON ---------------------------------------------------------------- *)

module J = Json

let jget k j =
  match J.member k j with Some v -> v | None -> invalid_arg ("Rollup: missing key " ^ k)

let jnum k j =
  match J.to_float (jget k j) with
  | Some f -> f
  | None -> invalid_arg ("Rollup: non-numeric key " ^ k)

let jlist k j =
  match J.to_list (jget k j) with
  | Some l -> l
  | None -> invalid_arg ("Rollup: non-array key " ^ k)

let jfloat j = match J.to_float j with Some f -> f | None -> invalid_arg "Rollup: non-number"

(* Serialized numbers are pre-rounded to the printer's 3-decimal
   resolution, so serialize(parse(s)) = s byte-for-byte: without this, a
   near-integral accumulation like 444.0000001 prints as "444.000" but
   re-parses to 444.0 and re-prints as "444". *)
let jnum3 v = J.Num (Float.round (v *. 1000.0) /. 1000.0)

let hist_to_json h =
  J.Obj
    [
      ("lo", jnum3 (Histogram.lo h));
      ("bpd", J.Num (float_of_int (Histogram.buckets_per_decade h)));
      ("counts", J.Arr (Array.to_list (Array.map (fun c -> J.Num (float_of_int c)) (Histogram.counts h))));
      ("sum", jnum3 (Histogram.sum h));
      ("max", jnum3 (Histogram.max_seen h));
    ]

let hist_of_json j =
  let counts =
    jlist "counts" j |> List.map (fun c -> int_of_float (jfloat c)) |> Array.of_list
  in
  Histogram.of_counts ~lo:(jnum "lo" j)
    ~buckets_per_decade:(int_of_float (jnum "bpd" j))
    ~counts ~sum:(jnum "sum" j) ~max_seen:(jnum "max" j)

let kv_to_json kvs = J.Obj (List.map (fun (k, v) -> (k, jnum3 v)) kvs)
let kv_of_json j = match j with J.Obj kvs -> List.map (fun (k, v) -> (k, jfloat v)) kvs | _ -> []

let vol_to_json (vol, r) =
  J.Obj
    [
      ("vol", J.Num (float_of_int vol));
      ("writes", J.Num (float_of_int r.vr_writes));
      ("admitted", J.Num (float_of_int r.vr_admitted));
      ("throttled", J.Num (float_of_int r.vr_throttled));
      ("shed", J.Num (float_of_int r.vr_shed));
      ("completed", J.Num (float_of_int r.vr_completed));
      ("backlog", J.Num (float_of_int r.vr_backlog));
      ("lat", hist_to_json r.vr_lat);
    ]

let vol_of_json j =
  let i k = int_of_float (jnum k j) in
  ( i "vol",
    {
      vr_writes = i "writes";
      vr_admitted = i "admitted";
      vr_throttled = i "throttled";
      vr_shed = i "shed";
      vr_completed = i "completed";
      vr_backlog = i "backlog";
      vr_lat = hist_of_json (jget "lat" j);
    } )

let window_to_json w =
  J.Obj
    [
      ("seq", J.Num (float_of_int w.w_seq));
      ("start", jnum3 w.w_start);
      ("end", jnum3 w.w_end);
      ("counters", kv_to_json w.w_counters);
      ("gauges", kv_to_json w.w_gauges);
      ("sketches", J.Obj (List.map (fun (k, h) -> (k, hist_to_json h)) w.w_sketches));
      ("vols", J.Arr (List.map vol_to_json w.w_vols));
    ]

let window_of_json j =
  {
    w_seq = int_of_float (jnum "seq" j);
    w_start = jnum "start" j;
    w_end = jnum "end" j;
    w_counters = kv_of_json (jget "counters" j);
    w_gauges = kv_of_json (jget "gauges" j);
    w_sketches =
      (match jget "sketches" j with
      | J.Obj kvs -> List.map (fun (k, h) -> (k, hist_of_json h)) kvs
      | _ -> []);
    w_vols = jlist "vols" j |> List.map vol_of_json;
  }

let snapshot_to_json s =
  J.Obj
    [
      ("schema", J.Str "wafl-rollup/1");
      ("window_us", jnum3 s.s_window_us);
      ("windows", J.Arr (List.map window_to_json s.s_windows));
    ]

let snapshot_of_json j =
  {
    s_window_us = jnum "window_us" j;
    s_windows = jlist "windows" j |> List.map window_of_json;
  }

(* --- deterministic shard merge ------------------------------------------- *)

(* One linear merge of two key-sorted lists; equal keys combine, [a]'s
   value first. *)
let rec merge_sorted cmp combine a b =
  match (a, b) with
  | [], l | l, [] -> l
  | ((ka, va) as x) :: ta, ((kb, vb) as y) :: tb ->
      let c = cmp ka kb in
      if c < 0 then x :: merge_sorted cmp combine ta b
      else if c > 0 then y :: merge_sorted cmp combine a tb
      else (ka, combine va vb) :: merge_sorted cmp combine ta tb

let merge_windows a b =
  {
    a with
    w_counters = merge_sorted String.compare ( +. ) a.w_counters b.w_counters;
    w_gauges = merge_sorted String.compare ( +. ) a.w_gauges b.w_gauges;
    w_sketches = merge_sorted String.compare Histogram.merge a.w_sketches b.w_sketches;
    w_vols = List.merge (fun (x, _) (y, _) -> Int.compare x y) a.w_vols b.w_vols;
  }

let merge_snapshots snaps =
  match snaps with
  | [] -> { s_window_us = 0.0; s_windows = [] }
  | (_, first) :: rest ->
      List.iter
        (fun (_, s) ->
          if s.s_window_us <> first.s_window_us then
            invalid_arg "Rollup.merge_snapshots: window_us mismatch")
        rest;
      (* Each shard's windows, oldest first and keyed by grid index, with
         its volume ids namespaced. *)
      let keyed (ns, s) =
        List.map
          (fun w ->
            ( w.w_seq,
              { w with w_vols = List.map (fun (v, r) -> ((ns lsl 16) lor v, r)) w.w_vols } ))
          s.s_windows
      in
      let windows =
        List.fold_left
          (fun acc snap -> merge_sorted Int.compare merge_windows acc (keyed snap))
          [] snaps
      in
      { s_window_us = first.s_window_us; s_windows = List.map snd windows }
