(* Typed metrics registry: counters, gauges and virtual-time histograms.

   This subsumes the loose end-of-run reads of [Wafl_fs.Counters]: a
   component registers its instruments once at construction time and
   updates them on the hot path with a single mutation (no hashing), and
   the tracer periodically samples every counter and gauge into the trace
   sink as a Chrome counter-event timeseries.  All read-side iteration is
   name-sorted so nothing observable depends on hash order. *)

type counter = { c_name : string; mutable c_value : float }
type gauge = { g_name : string; mutable g_value : float }
type histo = { h_name : string; h_hist : Wafl_util.Histogram.t }

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histos : (string, histo) Hashtbl.t;
}

let create () =
  { counters = Hashtbl.create 32; gauges = Hashtbl.create 32; histos = Hashtbl.create 32 }

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
      let c = { c_name = name; c_value = 0.0 } in
      Hashtbl.add t.counters name c;
      c

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
      let g = { g_name = name; g_value = 0.0 } in
      Hashtbl.add t.gauges name g;
      g

let histogram ?(lo = 0.01) ?(hi = 1e9) t name =
  match Hashtbl.find_opt t.histos name with
  | Some h -> h
  | None ->
      let h = { h_name = name; h_hist = Wafl_util.Histogram.create ~lo ~hi () } in
      Hashtbl.add t.histos name h;
      h

(* --- write side (hot path: one mutation, no lookup) ---------------------- *)

let incr c = c.c_value <- c.c_value +. 1.0
let add c n = c.c_value <- c.c_value +. float_of_int n
let addf c d = c.c_value <- c.c_value +. d
let set g v = g.g_value <- v
let observe h v = Wafl_util.Histogram.add h.h_hist v

(* --- read side (sorted, deterministic) ----------------------------------- *)

let counter_value t name =
  match Hashtbl.find_opt t.counters name with Some c -> c.c_value | None -> 0.0

let gauge_value t name =
  match Hashtbl.find_opt t.gauges name with Some g -> g.g_value | None -> 0.0

let histo t name = Option.map (fun h -> h.h_hist) (Hashtbl.find_opt t.histos name)

let sorted_of tbl value =
  (* lint-ok: sorted before use. *)
  Hashtbl.fold (fun k v acc -> (k, value v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t = sorted_of t.counters (fun c -> c.c_value)
let gauges t = sorted_of t.gauges (fun g -> g.g_value)
let histograms t = sorted_of t.histos (fun h -> h.h_hist)

let clear t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.gauges;
  Hashtbl.reset t.histos
