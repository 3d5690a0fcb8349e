open Wafl_workload
open Wafl_util

(* Noisy-neighbor overload experiment (DESIGN.md §4.11).

   One hot tenant offers bursty open-loop load far above the aggregate's
   CP drain rate while three well-behaved victims trickle along.  NVLog
   watermarks are always on (the hot bursts would otherwise exhaust
   NVRAM); per-volume QoS is the variable under test:

   - [Isolated]   victims alone, QoS on — the baseline tail.
   - [Noisy_off]  hot + victims, QoS off — the hot tenant's backlog and
                  the victims' tail latency grow without bound.
   - [Noisy_on]   hot + victims, QoS on — the hot tenant is throttled
                  and shed deterministically; victims stay near the
                  isolated baseline. *)

type scenario = Isolated | Noisy_off | Noisy_on

let scenario_name = function
  | Isolated -> "victims isolated"
  | Noisy_off -> "noisy, qos off"
  | Noisy_on -> "noisy, qos on"

type row = { scenario : scenario; r : Driver.result; victim_whist : Histogram.t }

let n_victims = 3
let victim_rate = 2_000.0 (* ops per virtual second, each *)

(* The burst phase offers ~10x a tenant's QoS share and well above what
   small-NVRAM CPs can drain, so watermark back-pressure and (with QoS
   on) shedding both engage.  Mean rate stays modest so a measurement
   window's total arrival count — and thus the fiber backlog a QoS-off
   run accumulates — stays bounded. *)
let hot_process =
  Arrival.Bursty
    { base_rate = 5_000.0; burst_rate = 400_000.0; mean_on_us = 5_000.0; mean_off_us = 20_000.0 }

let victim_process = Arrival.Poisson { rate = victim_rate }

let qos_config =
  { Wafl_qos.Qos.rate_per_s = 15_000.0; burst = 64.0; queue_depth = 128 }

let watermarks = { Wafl_fs.Nvlog.soft = 0.5; hard = 0.9; pace = 25.0 }

let spec ~scale ~scenario =
  let arrivals =
    match scenario with
    | Isolated -> List.init n_victims (fun _ -> victim_process)
    | Noisy_off | Noisy_on -> hot_process :: List.init n_victims (fun _ -> victim_process)
  in
  let qos = match scenario with Noisy_off -> None | Isolated | Noisy_on -> Some qos_config in
  let tenants = List.length arrivals in
  (* QoS on also means fair CP admission: per-volume cleaning work is
     round-robined so the hot volume cannot monopolize the front of a
     checkpoint. *)
  let cfg = Exp.wa_config ~cleaners:2 ~max_cleaners:4 () in
  let cfg = { cfg with Wafl_core.Walloc.fair_cp = qos <> None } in
  {
    (Exp.spec_base ~scale) with
    Driver.workload = Driver.Rand_write { file_blocks = max 1024 (int_of_float (8192.0 *. scale)) };
    (* tenant i <-> client slot i <-> its own volume *)
    clients = tenants;
    volumes = tenants;
    nvlog_half = 512;
    watermarks = Some watermarks;
    open_loop = Some { Driver.arrivals; qos };
    cfg;
  }

(* Victims are every tenant except the hot one (tenant 0 in the noisy
   scenarios). *)
let victims row =
  match row.scenario with
  | Isolated -> Array.to_list row.r.Driver.tenants
  | Noisy_off | Noisy_on -> List.tl (Array.to_list row.r.Driver.tenants)

let hot row =
  match row.scenario with
  | Isolated -> None
  | Noisy_off | Noisy_on -> Some row.r.Driver.tenants.(0)

let run_one ctx scenario =
  let r = Exp.run ctx (spec ~scale:(Exp.scale ctx) ~scenario) in
  let victim_whist = Histogram.create () in
  let row = { scenario; r; victim_whist } in
  List.iter
    (fun t -> Histogram.merge_into ~dst:victim_whist t.Driver.t_write_latency)
    (victims row);
  row

let run ctx = Exp.par_map ctx (run_one ctx) [ Isolated; Noisy_off; Noisy_on ]

let find rows scenario = List.find (fun row -> row.scenario = scenario) rows

(* --- bench accessors ---------------------------------------------------- *)

let goodput row = row.r.Driver.throughput

let shed_rate row =
  if row.r.Driver.offered_ops = 0 then 0.0
  else float_of_int row.r.Driver.shed_ops /. float_of_int row.r.Driver.offered_ops

let victim_p99 row = Histogram.percentile row.victim_whist 99.0

let backlog t = t.Driver.t_admitted - t.Driver.t_completed

let print rows =
  Printf.printf
    "\nOverload: noisy-neighbor tenant isolation (open-loop arrivals, watermarks on)\n";
  let t =
    Table.create
      ~headers:
        [
          "scenario";
          "offered ops/s";
          "goodput ops/s";
          "shed %";
          "victim p50 (us)";
          "victim p99 (us)";
          "hot backlog";
          "b2b cps";
          "stall (ms)";
        ]
  in
  List.iter
    (fun row ->
      let r = row.r in
      Table.add_row t
        [
          scenario_name row.scenario;
          Printf.sprintf "%.0f"
            (float_of_int r.Driver.offered_ops /. r.Driver.duration *. 1_000_000.0);
          Printf.sprintf "%.0f" (goodput row);
          Printf.sprintf "%.1f" (100.0 *. shed_rate row);
          Table.cell_f1 (Histogram.percentile row.victim_whist 50.0);
          Table.cell_f1 (victim_p99 row);
          (match hot row with None -> "-" | Some h -> string_of_int (backlog h));
          string_of_int r.Driver.b2b_cps;
          Printf.sprintf "%.1f" (r.Driver.stall_us /. 1000.0);
        ])
    rows;
  Table.print t;
  List.iter
    (fun row ->
      match hot row with
      | None -> ()
      | Some h ->
          Printf.printf
            "  %-16s hot tenant: offered %d, admitted %d, throttled %d, shed %d, completed %d\n"
            (scenario_name row.scenario) h.Driver.t_offered h.Driver.t_admitted
            h.Driver.t_throttled h.Driver.t_shed h.Driver.t_completed)
    rows

let shapes rows =
  let isolated = find rows Isolated in
  let off = find rows Noisy_off in
  let on = find rows Noisy_on in
  let base_p99 = victim_p99 isolated in
  [
    Exp.shape "overload: watermarks keep NVRAM exhaustion unreachable"
      (List.for_all (fun row -> row.r.Driver.nvlog_exhausted = 0) rows);
    Exp.shape "overload: hot bursts drive back-to-back CPs (qos off)" (off.r.Driver.b2b_cps > 0);
    Exp.shape "overload: qos off lets the hot tenant build unbounded backlog"
      (match hot off with
      | Some h -> backlog h > 10 * Option.fold ~none:0 ~some:backlog (hot on)
      | None -> false);
    Exp.shape "overload: qos off inflates victim p99 well above baseline (> 2x)"
      (victim_p99 off > 2.0 *. base_p99);
    Exp.shape "overload: qos on holds victim p99 within 2x isolated baseline"
      (victim_p99 on <= 2.0 *. base_p99);
    Exp.shape "overload: qos on sheds hot-tenant overload deterministically"
      (match hot on with Some h -> h.Driver.t_shed > 0 | None -> false);
    Exp.shape "overload: victims are never shed"
      (List.for_all (fun t -> t.Driver.t_shed = 0) (victims on @ victims isolated));
    Exp.shape "overload: watermark admission stalls clients (back-pressure visible)"
      (off.r.Driver.stall_us > 0.0);
  ]
