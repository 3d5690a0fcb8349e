type config = {
  parallel_infra : bool;
  cleaner_threads : int;
  max_cleaner_threads : int;
  dynamic_cleaners : bool;
  tuner : Tuner.config;
  chunk : int;
  ranges : int;
  batching : bool;
  segment_buffers : int;
  cp_timer : float option;
  serial_cleaning : bool;
  fair_cp : bool;
  streams : [ `Off | `Temperature ];
}

let default_config =
  {
    parallel_infra = true;
    cleaner_threads = 4;
    max_cleaner_threads = 8;
    dynamic_cleaners = false;
    tuner = Tuner.default_config;
    chunk = 128;
    ranges = 8;
    batching = true;
    segment_buffers = 4096;
    cp_timer = None;
    serial_cleaning = false;
    fair_cp = false;
    streams = `Off;
  }

let serialized_config =
  { default_config with parallel_infra = false; cleaner_threads = 1; max_cleaner_threads = 1 }

type t = {
  cfg : config;
  agg : Wafl_fs.Aggregate.t;
  sched : Wafl_waffinity.Scheduler.t;
  infra : Infra.t;
  pool : Cleaner_pool.t;
  cp : Cp.t;
  tuner : Tuner.t option;
}

let create ?(obs = Wafl_obs.Trace.disabled) agg cfg =
  let eng = Wafl_fs.Aggregate.engine agg in
  (* Sanitizing engines get the affinity-isolation checker: the scheduler
     registers each message's affinity, the engine's access hook validates
     every probe against it, and Infra registers the map-block owners. *)
  let isolation =
    if Wafl_sim.Engine.sanitizing eng then begin
      let iso = Wafl_waffinity.Isolation.create () in
      Wafl_sim.Engine.set_access_hook eng (fun fid shared _mode ->
          Wafl_waffinity.Isolation.check iso ~fid ~shared);
      Some iso
    end
    else None
  in
  let sched =
    Wafl_waffinity.Scheduler.create ?isolation ~obs eng
      ~cost:(Wafl_fs.Aggregate.cost agg) ()
  in
  let infra =
    Infra.create ~obs sched agg
      {
        Infra.parallel = cfg.parallel_infra;
        chunk = cfg.chunk;
        ranges = cfg.ranges;
        (* Guarantee a virtual bucket is always available to any cleaner
           that parks while holding a physical bucket: with more virtual
           buckets than cleaner threads, the per-volume cache can never be
           fully drained by held buckets (deadlock avoidance). *)
        vol_buckets_per_cycle = max 8 (cfg.max_cleaner_threads + 2);
      }
  in
  let pool =
    Cleaner_pool.create ~obs infra ~max_threads:cfg.max_cleaner_threads
      ~initial_threads:cfg.cleaner_threads
  in
  let cp =
    Cp.create ~obs infra pool
      {
        Cp.batching = cfg.batching;
        segment_buffers = cfg.segment_buffers;
        timer_interval = cfg.cp_timer;
        serial_cleaning = cfg.serial_cleaning;
        fair_cp = cfg.fair_cp;
      }
  in
  (* Watermark admission ([Aggregate.wait_for_log_space]) can now start
     early CPs; a no-op until watermarks are configured on the NVLog. *)
  Wafl_fs.Aggregate.set_cp_trigger agg (fun () -> Cp.request cp);
  (* Multi-stream write allocation: route tetris payloads to flash write
     streams by temperature.  Only consulted when a media model is
     attached, so `Off vs `Temperature is behavior-identical without
     flash. *)
  (match cfg.streams with
  | `Off -> ()
  | `Temperature -> Wafl_fs.Aggregate.set_stream_classifier agg (Tetris.make_temperature_stream ()));
  let tuner = if cfg.dynamic_cleaners then Some (Tuner.create pool cfg.tuner) else None in
  { cfg; agg; sched; infra; pool; cp; tuner }

let scheduler t = t.sched
let infra t = t.infra
let pool t = t.pool
let cp t = t.cp
let tuner t = t.tuner
let register_volume t vol = Infra.register_volume t.infra vol
