open Wafl_workload
open Wafl_util

(* Flash media-model experiment (DESIGN.md §4.13).

   Every row attaches a {!Wafl_flash.Ftl} to the RAID groups and runs a
   random-overwrite workload; the FTL's background GC relocates live
   pages to reclaim erase blocks, and the measured write amplification
   (WAF) plus GC-induced host stalls quantify what the device-fill level,
   the over-provisioning ratio and multi-stream write allocation buy:

   - [Steady] rows sweep device fill x streaming (and one bigger-OP
     point).  The workload is skewed (10% of each file takes 90% of the
     writes) so blocks have genuinely different lifetimes; streaming on
     routes metafile payloads and frequently-rewritten data to a hot
     open erase block and long-lived data to a cold one
     ([Tetris.make_temperature_stream]), so co-streamed pages die
     together and the GC moves fewer live pages.
   - [B2b_interference] adds the PR-6 overload substrate: a bursty
     open-loop tenant under NVLog watermarks, so back-to-back CPs and
     flash GC contend for the device at once. *)

type scenario = Steady of { fill : float; op : float; streaming : bool } | B2b_interference

let scenario_name = function
  | Steady { fill; op; streaming } ->
      Printf.sprintf "fill %.0f%% op %.0f%% stream %s" (100.0 *. fill) (100.0 *. op)
        (if streaming then "on" else "off")
  | B2b_interference -> "b2b bursts, stream on"

(* Device fill is live data over advertised capacity.  The live data is
   a fixed FS occupancy — every page of every client file churned by
   skewed random overwrites — and the fill axis thin-provisions the
   device ([Ftl.config.logical_capacity]) so the same aggregate sits at
   50% or 85% of the drive.  Two dead ends inform this shape: an
   FTL-internal cold prefill gets evicted by the working set (WAFL
   trims every freed VBN at CP commit, so GC keeps finding fully-dead
   churn blocks and WAF pins at 1), and sweeping fill as real FS
   occupancy runs the aggregate's own allocator out of copy-on-write
   headroom before the device is meaningfully full. *)
let occupancy = 0.625
let low_fill = 0.50
let high_fill = 0.85

(* Lifetime skew: 10% of each file's blocks take 90% of the writes.
   Without it every block has the same expected lifetime and there is
   nothing for stream segregation to separate. *)
let hot_fraction = 0.10
let hot_rate = 0.90

let scenarios =
  [
    Steady { fill = low_fill; op = 0.10; streaming = false };
    Steady { fill = low_fill; op = 0.10; streaming = true };
    Steady { fill = high_fill; op = 0.10; streaming = false };
    Steady { fill = high_fill; op = 0.10; streaming = true };
    Steady { fill = high_fill; op = 0.25; streaming = false };
    B2b_interference;
  ]

type row = { scenario : scenario; r : Driver.result }

let ftl_config ~fill ~op =
  {
    Wafl_flash.Ftl.default_config with
    Wafl_flash.Ftl.logical_capacity = occupancy /. fill;
    op_ratio = op;
    streams = 2;
  }

(* The B2B row reuses the overload substrate at a size the small
   geometry can carry: one bursty hot tenant plus one steady one, small
   NVRAM halves, watermark admission on. *)
let b2b_arrivals =
  [
    Arrival.Bursty
      { base_rate = 2_000.0; burst_rate = 80_000.0; mean_on_us = 20_000.0; mean_off_us = 150_000.0 };
    Arrival.Poisson { rate = 2_000.0 };
  ]

let watermarks = { Wafl_fs.Nvlog.soft = 0.5; hard = 0.9; pace = 25.0 }

let spec ~scale ~scenario =
  let base = Exp.spec_base ~scale in
  let cfg = Exp.wa_config ~cleaners:2 ~max_cleaners:4 () in
  let geometry = Driver.small_geometry () in
  let device_vbns = Wafl_storage.Geometry.total_data_blocks geometry in
  (* The churn footprint is physics, not workload size: it stays fixed
     across [scale] — only the window length scales. *)
  let file_blocks ~clients = int_of_float (occupancy *. float_of_int device_vbns) / clients in
  let common =
    (* Steady-state seasoning: the window must not open until the churn
       has written every physical erase block at least once and the GC
       is live at its watermarks, which takes ~(physical pages / flush
       rate) of virtual time — fixed physics, so it does not scale. *)
    {
      base with
      Driver.geometry;
      clients = 8;
      volumes = 2;
      cache_blocks = 16384;
      warmup = 2_500_000.0;
    }
  in
  match scenario with
  | Steady { fill; op; streaming } ->
      {
        common with
        Driver.workload =
          Driver.Skewed_write { file_blocks = file_blocks ~clients:8; hot_fraction; hot_rate };
        flash = Some (ftl_config ~fill ~op);
        cfg =
          { cfg with Wafl_core.Walloc.streams = (if streaming then `Temperature else `Off) };
      }
  | B2b_interference ->
      {
        common with
        Driver.workload =
          Driver.Skewed_write { file_blocks = file_blocks ~clients:2; hot_fraction; hot_rate };
        flash = Some (ftl_config ~fill:high_fill ~op:0.10);
        cfg = { cfg with Wafl_core.Walloc.streams = `Temperature };
        clients = 2;
        volumes = 2;
        nvlog_half = 256;
        watermarks = Some watermarks;
        open_loop = Some { Driver.arrivals = b2b_arrivals; qos = None };
      }

let run_one ctx scenario = { scenario; r = Exp.run ctx (spec ~scale:(Exp.scale ctx) ~scenario) }
let run ctx = Exp.par_map ctx (run_one ctx) scenarios
let find rows scenario = List.find (fun row -> row.scenario = scenario) rows

(* --- bench accessors ---------------------------------------------------- *)

let waf row = row.r.Driver.waf
let gc_stall_us row = row.r.Driver.flash_gc_stall_us
let write_p99 row = Histogram.percentile row.r.Driver.write_latency 99.0

let print rows =
  Printf.printf "\nFlash: NAND media model — WAF and GC push-back vs fill / OP / streaming\n";
  let t =
    Table.create
      ~headers:
        [
          "scenario";
          "waf";
          "host pages";
          "gc pages";
          "erases";
          "gc stall (ms)";
          "write p99 (us)";
          "ops/s";
          "b2b cps";
        ]
  in
  List.iter
    (fun row ->
      let r = row.r in
      Table.add_row t
        [
          scenario_name row.scenario;
          Printf.sprintf "%.2f" (waf row);
          string_of_int r.Driver.flash_host_pages;
          string_of_int r.Driver.flash_gc_pages;
          string_of_int r.Driver.flash_erases;
          Printf.sprintf "%.1f" (gc_stall_us row /. 1000.0);
          Table.cell_f1 (write_p99 row);
          Printf.sprintf "%.0f" r.Driver.throughput;
          string_of_int r.Driver.b2b_cps;
        ])
    rows;
  Table.print t

let shapes rows =
  let off_lo = find rows (Steady { fill = low_fill; op = 0.10; streaming = false }) in
  let off_hi = find rows (Steady { fill = high_fill; op = 0.10; streaming = false }) in
  let on_hi = find rows (Steady { fill = high_fill; op = 0.10; streaming = true }) in
  let op25 = find rows (Steady { fill = high_fill; op = 0.25; streaming = false }) in
  let b2b = find rows B2b_interference in
  [
    Exp.shape "flash: GC is active at high fill (relocations and erases happen)"
      (off_hi.r.Driver.flash_gc_pages > 0 && off_hi.r.Driver.flash_erases > 0);
    Exp.shape "flash: WAF grows with device fill (streaming off)" (waf off_hi > waf off_lo);
    Exp.shape "flash: streaming on beats streaming off at high fill (lower WAF)"
      (waf on_hi < waf off_hi);
    Exp.shape "flash: more over-provisioning lowers WAF at the same fill"
      (waf op25 < waf off_hi);
    Exp.shape "flash: GC push-back stalls host writes at high fill"
      (gc_stall_us off_hi > 0.0);
    Exp.shape "flash: bursty overload drives back-to-back CPs into GC interference"
      (b2b.r.Driver.b2b_cps > 0 && b2b.r.Driver.flash_gc_pages > 0);
  ]
