(* Typed metrics registry, one per engine (see metrics.mli and DESIGN.md
   §4.8).  Each name has one store: a pushed cell, updated on the hot
   path with a single mutation, or the pull readers of values components
   keep anyway.  The registry is a map keyed by name, so enumeration is
   in name order by construction and nothing observable depends on hash
   order. *)

module Names = Map.Make (String)

type counter = { mutable value : float }
type gauge = counter
type histo = { h_hist : Wafl_util.Histogram.t }

(* Pull readers are kept in registration order, the order they sum in. *)
type store = Pushed of counter | Pulled of (unit -> float) list

type t = {
  mutable counters : store Names.t;
  mutable gauges : store Names.t;
  mutable histos : histo Names.t;
}

let create () = { counters = Names.empty; gauges = Names.empty; histos = Names.empty }
let both name = invalid_arg ("Metrics: " ^ name ^ " is both pushed and pulled")

let pushed stores name =
  match Names.find_opt name stores with
  | Some (Pushed cell) -> (cell, stores)
  | Some (Pulled _) -> both name
  | None ->
      let cell = { value = 0.0 } in
      (cell, Names.add name (Pushed cell) stores)

let pulled stores name read =
  match Names.find_opt name stores with
  | Some (Pushed _) -> both name
  | Some (Pulled reads) -> Names.add name (Pulled (reads @ [ read ])) stores
  | None -> Names.add name (Pulled [ read ]) stores

let counter t name =
  let c, stores = pushed t.counters name in
  t.counters <- stores;
  c

let gauge t name =
  let g, stores = pushed t.gauges name in
  t.gauges <- stores;
  g

let pull_counter t name read = t.counters <- pulled t.counters name read
let pull_gauge t name read = t.gauges <- pulled t.gauges name read

let histogram ?(lo = 0.01) ?(hi = 1e9) t name =
  match Names.find_opt name t.histos with
  | Some h -> h
  | None ->
      let h = { h_hist = Wafl_util.Histogram.create ~lo ~hi () } in
      t.histos <- Names.add name h t.histos;
      h

(* --- write side (hot path: one mutation, no lookup) ---------------------- *)

let incr c = c.value <- c.value +. 1.0
let add c n = c.value <- c.value +. float_of_int n
let set g v = g.value <- v
let observe h v = Wafl_util.Histogram.add h.h_hist v

(* --- read side (name order, deterministic) ------------------------------- *)

let read = function
  | Pushed cell -> cell.value
  | Pulled reads -> List.fold_left (fun acc read -> acc +. read ()) 0.0 reads

let value_of stores name = match Names.find_opt name stores with Some s -> read s | None -> 0.0
let counter_value t name = value_of t.counters name
let gauge_value t name = value_of t.gauges name
let histo t name = Option.map (fun h -> h.h_hist) (Names.find_opt name t.histos)
let values stores value = List.map (fun (k, s) -> (k, value s)) (Names.bindings stores)
let counters t = values t.counters read
let gauges t = values t.gauges read
let histograms t = values t.histos (fun h -> h.h_hist)
