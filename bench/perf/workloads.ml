(* The four benchmark workloads.  Each is one fixed Driver.spec built
   from Driver.default_spec and Exp.wa_config (none of the harness's
   ambient refs are read), so a run depends only on the workload name,
   the seed and whether the windows are shrunk for a smoke run.  Why each
   workload exists is recorded in BENCHMARK.json and README.md. *)

module D = Wafl_workload.Driver
module Exp = Wafl_harness.Exp

type t = { name : string; spec : seed:int -> smoke:bool -> D.spec }

(* All four run on 20 virtual cores with the always-on telemetry the
   figure suite attaches. *)
let base ~seed =
  { D.default_spec with D.seed; cfg = Exp.wa_config (); telemetry = Some D.default_telemetry }

(* Smoke runs keep each spec's shape and shrink both windows to 50 ms
   virtual, except flash_gc's warmup: the FTL's GC only starts once the
   churn has cycled the device's free erase blocks, which takes ~2 s
   virtual whatever the run length. *)
let shrink ~smoke ?(keep_warmup = false) (s : D.spec) =
  if not smoke then s
  else
    {
      s with
      D.warmup = (if keep_warmup then s.D.warmup else Float.min s.D.warmup 50_000.0);
      measure = 50_000.0;
    }

(* fig4's top row: 40 clients x 16 384-block files, 4 cleaners. *)
let seq_write =
  { name = "seq_write"; spec = (fun ~seed ~smoke -> shrink ~smoke (base ~seed)) }

(* fig7: the same layers, with scattered frees. *)
let rand_write =
  {
    name = "rand_write";
    spec =
      (fun ~seed ~smoke ->
        shrink ~smoke { (base ~seed) with D.workload = D.Rand_write { file_blocks = 16384 } });
  }

(* 40 tenants x 6 000 ops/s sits below the knee: at 8 000 per tenant the
   write p50 jumps to ~75 ms.  The 1 Mi-block cache holds the 655 Ki-block
   working set. *)
let oltp_open =
  {
    name = "oltp_open";
    spec =
      (fun ~seed ~smoke ->
        shrink ~smoke
          {
            (base ~seed) with
            D.workload = D.Oltp { file_blocks = 16384; read_fraction = 0.67 };
            cfg = Exp.wa_config ~cleaners:1 ~max_cleaners:4 ~dynamic:true ();
            cache_blocks = 1 lsl 20;
            nvlog_half = 2048;
            watermarks = Some { Wafl_fs.Nvlog.soft = 0.5; hard = 0.9; pace = 25.0 };
            open_loop =
              Some
                {
                  D.arrivals =
                    List.init 40 (fun _ -> Wafl_workload.Arrival.Poisson { rate = 6_000.0 });
                  qos = None;
                };
            measure = 2_000_000.0;
          });
  }

(* The flash figure's high-fill streaming row: the aggregate occupies
   62.5% of the VBN space and the device is thin-provisioned so that this
   live data fills 85% of it; 10% of each file takes 90% of the writes. *)
let flash_gc =
  {
    name = "flash_gc";
    spec =
      (fun ~seed ~smoke ->
        let geometry = D.small_geometry () in
        let occupancy = 0.625 in
        let clients = 8 in
        let file_blocks =
          int_of_float (occupancy *. float_of_int (Wafl_storage.Geometry.total_data_blocks geometry))
          / clients
        in
        let cfg = Exp.wa_config ~cleaners:2 ~max_cleaners:4 () in
        shrink ~smoke ~keep_warmup:true
          {
            (base ~seed) with
            D.geometry;
            clients;
            cache_blocks = 16384;
            workload = D.Skewed_write { file_blocks; hot_fraction = 0.10; hot_rate = 0.90 };
            flash =
              Some
                {
                  Wafl_flash.Ftl.default_config with
                  Wafl_flash.Ftl.logical_capacity = occupancy /. 0.85;
                  op_ratio = 0.10;
                  streams = 2;
                };
            cfg = { cfg with Wafl_core.Walloc.streams = `Temperature };
            warmup = 2_500_000.0;
            measure = 20_000_000.0;
          });
  }

let all = [ seq_write; rand_write; oltp_open; flash_gc ]
let find name = List.find_opt (fun w -> w.name = name) all
