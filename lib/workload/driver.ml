open Wafl_sim
open Wafl_fs
module Geometry = Wafl_storage.Geometry
module Sched = Wafl_waffinity.Scheduler
module Aff = Wafl_waffinity.Affinity

type workload =
  | Seq_write of { file_blocks : int }
  | Rand_write of { file_blocks : int }
  | Skewed_write of { file_blocks : int; hot_fraction : float; hot_rate : float }
  | Mixed_write of { file_blocks : int; random_fraction : float }
  | Oltp of { file_blocks : int; read_fraction : float }
  | Nfs_mix of { files_per_client : int; file_blocks : int }

(* Documented in driver.mli.  Pure data (no closures but [obs]) so specs
   stay structurally comparable: [Exp.run] keys its per-context table on them. *)
type open_loop = {
  arrivals : Arrival.process list;
  qos : Wafl_qos.Qos.config option;
}

type telemetry = {
  rollup : Wafl_obs.Rollup.config;
  rules : Wafl_obs.Health.rule list;
}

let default_telemetry =
  { rollup = Wafl_obs.Rollup.default_config; rules = Wafl_obs.Health.default_rules }

type telemetry_result = {
  tr_snapshot : Wafl_obs.Rollup.snapshot;
  tr_events : Wafl_obs.Health.event list;
  tr_health_dropped : int;
}

type spec = {
  cores : int;
  workload : workload;
  clients : int;
  think_time : float;
  volumes : int;
  cfg : Wafl_core.Walloc.config;
  cost : Cost.t;
  geometry : Geometry.t;
  nvlog_half : int;
  watermarks : Nvlog.watermarks option;
  open_loop : open_loop option;
  flash : Wafl_flash.Ftl.config option;
  cache_blocks : int;
  warmup : float;
  measure : float;
  seed : int;
  sanitize : bool;
  chaos : Wafl_storage.Fault.chaos;
  telemetry : telemetry option;
  obs : Engine.t -> Wafl_obs.Trace.t;
}

let paper_geometry () =
  Geometry.create ~drive_blocks:262144 ~aa_stripes:2048 ~raid_groups:[ (10, 2); (10, 2) ] ()

let small_geometry () =
  Geometry.create ~drive_blocks:16384 ~aa_stripes:512 ~raid_groups:[ (4, 1) ] ()

let default_spec =
  {
    cores = 20;
    workload = Seq_write { file_blocks = 16384 };
    clients = 40;
    think_time = 0.0;
    volumes = 2;
    cfg = { Wafl_core.Walloc.default_config with cp_timer = Some 250_000.0 };
    cost = Cost.default;
    geometry = paper_geometry ();
    nvlog_half = 16384;
    watermarks = None;
    open_loop = None;
    flash = None;
    cache_blocks = 65536;
    warmup = 300_000.0;
    measure = 1_000_000.0;
    seed = 42;
    sanitize = false;
    chaos = Wafl_storage.Fault.no_chaos;
    telemetry = None;
    obs = (fun _ -> Wafl_obs.Trace.disabled);
  }

type tenant_stat = {
  t_rate : float;
  t_offered : int;
  t_admitted : int;
  t_throttled : int;
  t_shed : int;
  t_completed : int;
  t_write_latency : Wafl_util.Histogram.t;
}

type result = {
  ops : int;
  duration : float;
  virtual_us : float;
  throughput : float;
  throughput_per_client : float;
  latency : Wafl_util.Histogram.t;
  write_latency : Wafl_util.Histogram.t;
  reads : int;
  writes : int;
  metas : int;
  cores_client : float;
  cores_cleaner : float;
  cores_infra : float;
  cores_cp : float;
  cores_io_other : float;
  utilization : float;
  cps_completed : int;
  buffers_cleaned : int;
  vbns_allocated : int;
  vbns_freed : int;
  metafile_blocks_touched : int;
  infra_messages : int;
  cleaner_messages : int;
  get_waits : int;
  avg_active_cleaners : float;
  full_stripes : int;
  partial_stripes : int;
  read_contiguity : float;
  offered_ops : int;
  shed_ops : int;
  throttled_ops : int;
  stall_us : float;
  b2b_cps : int;
  b2b_episodes : int;
  nvlog_exhausted : int;
  tenants : tenant_stat array;
  races : int;
  flash_host_pages : int;
  flash_gc_pages : int;
  flash_erases : int;
  flash_gc_stall_us : float;
  waf : float;
  telemetry : telemetry_result option;
}

let cores_write_alloc r = r.cores_cleaner +. r.cores_infra

(* Average run length of physically consecutive blocks when walking a
   file's logical block numbers in order — the sequential-read layout
   quality that bucket-chunk contiguity buys (SIV-C, objective 2). *)
let measure_contiguity vol file =
  let runs = ref 0 and mapped = ref 0 in
  let prev = ref (-2) in
  for fbn = 0 to File.nfbns file - 1 do
    let vvbn = File.vvbn_of_fbn file fbn in
    if vvbn >= 0 then begin
      let pvbn = Volume.pvbn_of_vvbn vol vvbn in
      if pvbn >= 0 then begin
        incr mapped;
        if pvbn <> !prev + 1 then incr runs;
        prev := pvbn
      end
    end
  done;
  if !runs = 0 then 0.0 else float_of_int !mapped /. float_of_int !runs

(* --- client operation streams ------------------------------------------- *)

type op = Read of int | Write of int * int64 | Meta (* block index [, content token] *)

type client_files = { vol : Volume.t; files : File.t array; file_blocks : int }

(* Measure-window accounting for the run and for each open-loop tenant
   (arrivals: tenants only); ops/writes are [hist]/[whist] counts. *)
type tally = {
  mutable offered : int; mutable admitted : int; mutable throttled : int; mutable shed : int;
  mutable reads : int; mutable metas : int;
  hist : Wafl_util.Histogram.t; whist : Wafl_util.Histogram.t;
}

(* One op source: a closed-loop client, or an open-loop tenant with its tally. *)
type issuer = {
  cf : client_files; rng : Wafl_util.Rng.t; tenant : tally option;
  mutable cursor : int; mutable token : int64;
}

(* Each client owns [files] in one volume; ops address a flat block space
   across them so one generator serves all workloads.  An op on a block
   runs in the Stripe affinity of its fbn. *)
let op_target cf idx =
  let file = cf.files.(idx / cf.file_blocks) in
  let fbn = idx mod cf.file_blocks in
  (file, fbn, Aff.Stripe (0, Volume.id cf.vol, fbn / 1024 mod 16))

let total_blocks cf = Array.length cf.files * cf.file_blocks

let write is idx =
  is.token <- Int64.add is.token 1L;
  Write (idx, is.token)

let next_seq is =
  let idx = is.cursor in
  is.cursor <- (idx + 1) mod total_blocks is.cf;
  write is idx

let gen_op workload is =
  let total = total_blocks is.cf in
  match workload with
  | Seq_write _ -> next_seq is
  | Rand_write _ -> write is (Wafl_util.Rng.int is.rng total)
  | Skewed_write { hot_fraction; hot_rate; _ } ->
      (* The first [hot_fraction] of the blocks takes [hot_rate] of the
         writes — the hot/cold lifetime skew the flash streaming policy
         exploits. *)
      let hot = max 1 (min (total - 1) (int_of_float (hot_fraction *. float_of_int total))) in
      if Wafl_util.Rng.float is.rng 1.0 < hot_rate then write is (Wafl_util.Rng.int is.rng hot)
      else write is (hot + Wafl_util.Rng.int is.rng (total - hot))
  | Mixed_write { random_fraction; _ } ->
      if Wafl_util.Rng.float is.rng 1.0 < random_fraction then
        write is (Wafl_util.Rng.int is.rng total)
      else next_seq is
  | Oltp { read_fraction; _ } ->
      let idx = Wafl_util.Rng.int is.rng total in
      if Wafl_util.Rng.float is.rng 1.0 < read_fraction then Read idx else write is idx
  | Nfs_mix _ ->
      (* 40% reads, 40% small writes, 20% metadata operations. *)
      let p = Wafl_util.Rng.float is.rng 1.0 in
      let idx = Wafl_util.Rng.int is.rng total in
      if p < 0.4 then Read idx else if p < 0.8 then write is idx else Meta

(* --- the measured run ---------------------------------------------------- *)

let tally () =
  { offered = 0; admitted = 0; throttled = 0; shed = 0; reads = 0; metas = 0;
    hist = Wafl_util.Histogram.create (); whist = Wafl_util.Histogram.create () }

let record t kind e2e =
  (match kind with
  | `R -> t.reads <- t.reads + 1
  | `W -> Wafl_util.Histogram.add t.whist e2e
  | `M -> t.metas <- t.metas + 1);
  Wafl_util.Histogram.add t.hist e2e

let files_of_workload = function
  | Nfs_mix { files_per_client; file_blocks } -> (files_per_client, file_blocks)
  | Seq_write { file_blocks } | Rand_write { file_blocks } | Skewed_write { file_blocks; _ }
  | Mixed_write { file_blocks; _ } | Oltp { file_blocks; _ } -> (1, file_blocks)

(* Specs reach [run] from the CLI as well as the harness: reject the ones
   that cannot describe a server before anything is built. *)
let validate spec =
  let bad fmt = Printf.ksprintf invalid_arg ("Driver.run: " ^^ fmt) in
  if spec.clients < 1 then bad "clients %d must be >= 1" spec.clients;
  if spec.volumes < 1 then bad "volumes %d must be >= 1" spec.volumes;
  if not (spec.measure > 0.0) then bad "measure %g must be > 0" spec.measure;
  let files_per_client, file_blocks = files_of_workload spec.workload in
  let working_set = spec.clients * files_per_client * file_blocks in
  let capacity = Geometry.total_data_blocks spec.geometry in
  if working_set * 3 / 2 >= capacity then
    bad "working set %d too large for aggregate of %d blocks" working_set capacity

let run spec =
  validate spec;
  let eng = Engine.create ~cores:spec.cores ~sanitize:spec.sanitize () in
  let obs = spec.obs eng in
  let agg =
    Aggregate.create eng ~cost:spec.cost ~geometry:spec.geometry ~nvlog_half:spec.nvlog_half
      ?nvlog_watermarks:spec.watermarks ?flash:spec.flash ~cache_blocks:spec.cache_blocks ~obs
      ~chaos:spec.chaos ()
  in
  let walloc = Wafl_core.Walloc.create ~obs agg spec.cfg in
  let cp = Wafl_core.Walloc.cp walloc and pool = Wafl_core.Walloc.pool walloc in
  (* The engine's registry: components publish their counts there, and
     the measurement window and the telemetry rollup read them by name. *)
  let m = Engine.metrics eng in
  (* End-to-end latency decomposition (DESIGN.md §4.10): per-op-kind
     histograms plus the time writes spend throttled behind CP progress. *)
  let h_e2e_read = Metrics.histogram m "op.e2e_us.read" in
  let h_e2e_write = Metrics.histogram m "op.e2e_us.write" in
  let h_e2e_meta = Metrics.histogram m "op.e2e_us.meta" in
  let h_throttle = Metrics.histogram m "op.throttle_us" in
  let h_qos_wait = Metrics.histogram m "qos.queue_wait_us" in
  let c_qos_admitted = Metrics.counter m "qos.admitted_ops" in
  let c_qos_throttled = Metrics.counter m "qos.throttled_ops" in
  let c_qos_shed = Metrics.counter m "qos.shed_ops" in
  (* Fleet telemetry: the rollup watches the run's registry; windows seal
     lazily from the per-op feeds below, so no fiber is spawned and the
     run stays bit-identical.  Ring drops only exist when a tracer
     records. *)
  let telem =
    match spec.telemetry with
    | None -> None
    | Some tcfg ->
        let roll = Wafl_obs.Rollup.create ~config:tcfg.rollup eng in
        let health = Wafl_obs.Health.create ~rules:tcfg.rules roll in
        Wafl_obs.Rollup.watch roll
          ~counters:
            ((if Wafl_obs.Trace.enabled obs then [ "trace.drops" ] else [])
            @ [ "cp.count"; "cp.b2b"; "nvlog.stall_us"; "nvlog.hard_dwell_us";
                "flash.gc_stall_us"; "rebuild.blocks"; "qos.shed_ops" ])
          ~gauges:[ "rebuild.active" ]
          ~histograms:
            [ "op.e2e_us.write"; "qos.queue_wait_us"; "cp.duration_us"; "cp.phase_us.cleaning";
              "cp.phase_us.flush"; "cp.phase_us.metafiles"; "cp.phase_us.io-flush" ];
        Some (roll, health)
  in
  let files_per_client, file_blocks = files_of_workload spec.workload in
  (* --- setup and prefill (not measured) --- *)
  let client_files = ref [||] in
  let setup_done = ref false in
  ignore
    (Engine.spawn eng ~label:"setup" (fun () ->
         let vols =
           Array.init spec.volumes (fun _ ->
               let clients_here = (spec.clients + spec.volumes - 1) / spec.volumes in
               let ws = clients_here * files_per_client * file_blocks in
               let vol = Aggregate.create_volume agg ~vvbn_space:((ws * 3 / 2) + 65536) in
               Wafl_core.Walloc.register_volume walloc vol;
               vol)
         in
         client_files :=
           Array.init spec.clients (fun c ->
               let vol = vols.(c mod spec.volumes) in
               let files =
                 Array.init files_per_client (fun _ ->
                     Aggregate.create_file agg ~vol:(Volume.id vol))
               in
               { vol; files; file_blocks });
         (* Prefill every block once so steady-state writes are
            overwrites (as on a system that has been running). *)
         let token = ref 0L in
         Array.iter
           (fun cf ->
             Array.iter
               (fun f ->
                 for fbn = 0 to cf.file_blocks - 1 do
                   token := Int64.add !token 1L;
                   match
                     Aggregate.write agg ~vol:(Volume.id cf.vol) ~file:(File.id f) ~fbn
                       ~content:!token
                   with
                   | `Ok -> ()
                   | `Log_half_full -> Wafl_core.Cp.run_now cp
                   | `Log_exhausted ->
                       (* run_now drains the log synchronously, so the
                          prefill can never outrun it *)
                       assert false
                 done)
               cf.files)
           !client_files;
         Wafl_core.Cp.run_now cp;
         setup_done := true));
  (* The CP timer fiber never exits, so the engine is never idle; run in
     bounded slices until the prefill completes. *)
  while not !setup_done do
    Engine.run ~until:(Engine.now eng +. 1_000_000.0) eng
  done;
  let client_files = !client_files in
  (* --- clients --- *)
  let sched = Wafl_core.Walloc.scheduler walloc in
  let window = tally () and recording = ref false in
  let master_rng = Wafl_util.Rng.create ~seed:spec.seed in
  let active_samples = ref 0 and active_sum = ref 0 in
  (* Waiting for NVLog space is where CP back-pressure surfaces in
     client latency; measure it separately so the decomposition can
     distinguish throttling from service time. *)
  let throttled_wait () =
    let w0 = Engine.now eng in
    Aggregate.wait_for_log_space agg;
    Metrics.observe h_throttle (Engine.now eng -. w0)
  in
  let write_cost =
    let c = spec.cost in
    match spec.workload with
    | Seq_write _ | Nfs_mix _ -> c.Cost.client_write
    | Rand_write _ | Skewed_write _ | Oltp _ -> c.Cost.client_write_random
    | Mixed_write { random_fraction; _ } ->
        (* Interpolate the client-side cost with the mix. *)
        (c.Cost.client_write *. (1.0 -. random_fraction))
        +. (c.Cost.client_write_random *. random_fraction)
  in
  let telem_count vol kind =
    match telem with Some (roll, _) -> Wafl_obs.Rollup.count roll ~vol kind | None -> ()
  in
  let issuer ?tenant i rng =
    let cf = client_files.(i mod spec.clients) in
    let cursor = Wafl_util.Rng.int rng (total_blocks cf) in
    { cf; rng; tenant; cursor; token = Int64.of_int ((i + 1) * 1_000_000) }
  in
  (* The one op path both pacing modes share, run as one causal root: the
     context follows the op through its Waffinity message (and downstream
     handoffs), and the op span closes its end-to-end interval from
     [started], the arrival time. *)
  let serve is ~started op =
    let vol = Volume.id is.cf.vol in
    let kind =
      Wafl_obs.Causal.with_root obs (fun () ->
          let kind =
            match op with
            | Read idx ->
                let file, fbn, affinity = op_target is.cf idx in
                Sched.post_wait sched ~affinity ~label:"client" (fun () ->
                    Engine.consume spec.cost.Cost.client_read;
                    match Aggregate.read_cached_status agg ~vol ~file:(File.id file) ~fbn with
                    | _, `Miss -> Engine.consume spec.cost.Cost.read_miss
                    | _, (`Hit | `Buffered) -> ());
                `R
            | Write (idx, content) ->
                (* Throttle against CP progress before consuming NVRAM
                   (the message body itself must never park). *)
                throttled_wait ();
                let file, fbn, affinity = op_target is.cf idx in
                let status =
                  Sched.post_wait sched ~affinity ~label:"client" (fun () ->
                      Engine.consume write_cost;
                      Aggregate.write agg ~vol ~file:(File.id file) ~fbn ~content)
                in
                (match status with
                | `Ok -> ()
                | `Log_half_full ->
                    Wafl_core.Cp.request cp;
                    (* Watermark admission already paced this write before
                       it consumed NVRAM; the legacy post-hoc wait applies
                       only to the historical throttle. *)
                    if spec.watermarks = None then throttled_wait ()
                | `Log_exhausted ->
                    (* Unreachable under watermarks (the regression suite
                       asserts so); the op is simply not acknowledged. *)
                    ());
                `W
            | Meta ->
                Sched.post_wait sched ~affinity:(Aff.Volume_logical (0, vol)) ~label:"client"
                  (fun () -> Engine.consume spec.cost.Cost.client_meta);
                `M
          in
          (* Recorded inside the root so the op span carries its request
             context. *)
          let name, h =
            match kind with
            | `R -> ("read", h_e2e_read)
            | `W -> ("write", h_e2e_write)
            | `M -> ("meta", h_e2e_meta)
          in
          let dur = Engine.now eng -. started in
          Metrics.observe h dur;
          Wafl_obs.Trace.complete obs ~cat:"op" ~name ~ts:started ~dur ();
          (match telem with
          | Some (roll, _) when kind = `W ->
              Wafl_obs.Rollup.observe_write roll ~vol (Engine.now eng -. started)
          | _ -> ());
          kind)
    in
    telem_count vol `Completed;
    kind
  in
  (* Account a windowed reply in the run's tally and its tenant's (shared by
     every op fiber; the real system's stats counters are atomics).  Each
     pacing mode decides what is windowed: a closed-loop op if the window
     is open when it completes, an open-loop op if it arrived inside it. *)
  let account is kind ~started =
    let e2e = Engine.now eng -. started in
    (match is.tenant with
    | Some t ->
        Engine.probe_atomic eng ~shared:"driver.tenants";
        record t kind e2e
    | None -> ());
    Engine.probe_atomic eng ~shared:"driver.recorder";
    record window kind e2e
  in
  (* Closed loop: one op outstanding, then an exponential think (or a yield). *)
  let closed_client is () =
    while true do
      let started = Engine.now eng in
      let op = gen_op spec.workload is in
      telem_count (Volume.id is.cf.vol) `Admitted;
      let kind = serve is ~started op in
      if !recording then account is kind ~started;
      if spec.think_time > 0.0 then
        Engine.sleep (Wafl_util.Rng.exponential is.rng ~mean:spec.think_time)
      else Engine.yield ()
    done
  in
  (* Open loop: the tenant issues ops on its own arrival clock, each in a
     fresh fiber, optionally behind per-volume QoS admission.  Ops arriving
     inside the measure window are recorded at completion, even after it
     closes, so overload queueing is visible rather than censored; ops
     still in flight at the end show up as admitted - completed backlog. *)
  let open_tenant is arr acc qos () =
    let vol = Volume.id is.cf.vol in
    while true do
      Engine.sleep (Arrival.next arr ~now:(Engine.now eng));
      (* per-tenant accounting is updated from this arrival fiber and
         every op-completion fiber *)
      Engine.probe_atomic eng ~shared:"driver.tenants";
      let windowed = !recording in
      if windowed then acc.offered <- acc.offered + 1;
      let op = gen_op spec.workload is in
      let verdict =
        match qos with None -> `Admit | Some q -> Wafl_qos.Qos.admit q ~vol ~now:(Engine.now eng)
      in
      match verdict with
      | `Shed ->
          if windowed then acc.shed <- acc.shed + 1;
          telem_count vol `Shed;
          Metrics.incr c_qos_shed
      | (`Admit | `Delay _) as verdict ->
          let delay = match verdict with `Delay d -> d | `Admit -> 0.0 in
          if windowed then acc.admitted <- acc.admitted + 1;
          telem_count vol `Admitted;
          Metrics.incr c_qos_admitted;
          if delay > 0.0 then begin
            if windowed then acc.throttled <- acc.throttled + 1;
            telem_count vol `Throttled;
            Metrics.incr c_qos_throttled;
            Metrics.observe h_qos_wait delay
          end;
          let started = Engine.now eng in
          ignore
            (Engine.spawn eng ~label:"client" (fun () ->
                 if delay > 0.0 then Engine.sleep delay;
                 let kind = serve is ~started op in
                 if windowed then account is kind ~started))
    done
  in
  (* Spawn the issuers in index order, each on the next split stream.  They
     and the sampler loop for as long as the engine is driven. *)
  let tenants =
    match spec.open_loop with
    | None ->
        for c = 0 to spec.clients - 1 do
          let is = issuer c (Wafl_util.Rng.split master_rng) in
          (* Called, not tail-called, so the loop's frame is not the
             fiber's bottom frame, where a host-profiler sample finds no
             source location (DESIGN.md §4.9, Profiling). *)
          ignore (Engine.spawn eng ~label:"client" (fun () -> closed_client is (); ()))
        done;
        [||]
    | Some ol ->
        let qos = Option.map (Wafl_qos.Qos.create ~eng) ol.qos in
        Array.of_list ol.arrivals
        |> Array.mapi (fun i proc ->
               let rng = Wafl_util.Rng.split master_rng in
               let arr = Arrival.start proc ~rng in
               let acc = tally () in
               let is = issuer ~tenant:acc i rng in
               ignore (Engine.spawn eng ~label:"arrival" (open_tenant is arr acc qos));
               (proc, acc))
  in
  (* Sample the active cleaner-thread count through the measurement. *)
  ignore
    (Engine.spawn eng ~label:"sampler" (fun () ->
         while true do
           Engine.sleep 10_000.0;
           if !recording then begin
             Engine.probe_atomic eng ~shared:"driver.recorder";
             incr active_samples;
             active_sum := !active_sum + Wafl_core.Cleaner_pool.active pool
           end
         done));
  (* --- warmup --- *)
  Engine.run ~until:(Engine.now eng +. spec.warmup) eng;
  Engine.reset_accounting eng;
  (* --- measurement: one window over the registry's counts --- *)
  let counted =
    [ "cp.count"; "cp.b2b"; "cp.b2b_episodes"; "nvlog.stall_us"; "nvlog.exhausted";
      "cleaner.buffers"; "cleaner.messages"; "cleaner.get_waits"; "infra.vbns_allocated";
      "infra.vbns_freed"; "infra.metafile_blocks"; "infra.messages"; "raid.full_stripes";
      "raid.partial_stripes"; "flash.host_pages"; "flash.gc_pages"; "flash.erases";
      "flash.gc_stall_us" ]
  in
  recording := true;
  let opened = List.map (fun name -> (name, Metrics.counter_value m name)) counted in
  let t0 = Engine.now eng in
  Engine.run ~until:(t0 +. spec.measure) eng;
  recording := false;
  let delta name = Metrics.counter_value m name -. List.assoc name opened in
  let count name = int_of_float (delta name) in
  let duration = Engine.now eng -. t0 in
  let ops = Wafl_util.Histogram.count window.hist in
  let throughput = float_of_int ops /. duration *. 1_000_000.0 in
  let tenant_sum f = Array.fold_left (fun a (_, t) -> a + f t) 0 tenants in
  let flash_host = count "flash.host_pages" and flash_gc = count "flash.gc_pages" in
  {
    ops;
    duration;
    virtual_us = Engine.now eng;
    throughput;
    throughput_per_client = throughput /. float_of_int spec.clients;
    latency = window.hist;
    write_latency = window.whist;
    reads = window.reads;
    writes = Wafl_util.Histogram.count window.whist;
    metas = window.metas;
    cores_client = Engine.cores_used eng "client";
    cores_cleaner = Engine.cores_used eng "cleaner";
    cores_infra = Engine.cores_used eng "infra";
    cores_cp = Engine.cores_used eng "cp";
    cores_io_other =
      Engine.cores_used eng "io" +. Engine.cores_used eng "other"
      +. Engine.cores_used eng "sampler" +. Engine.cores_used eng "tuner";
    utilization = Engine.utilization eng;
    cps_completed = count "cp.count";
    buffers_cleaned = count "cleaner.buffers";
    vbns_allocated = count "infra.vbns_allocated";
    vbns_freed = count "infra.vbns_freed";
    metafile_blocks_touched = count "infra.metafile_blocks";
    infra_messages = count "infra.messages";
    cleaner_messages = count "cleaner.messages";
    get_waits = count "cleaner.get_waits";
    avg_active_cleaners =
      (if !active_samples = 0 then float_of_int (Wafl_core.Cleaner_pool.active pool)
       else float_of_int !active_sum /. float_of_int !active_samples);
    full_stripes = count "raid.full_stripes";
    partial_stripes = count "raid.partial_stripes";
    read_contiguity =
      (let per_file =
         Array.to_list client_files
         |> List.concat_map (fun cf ->
                List.map (measure_contiguity cf.vol) (Array.to_list cf.files))
       in
       if per_file = [] then 0.0
       else List.fold_left ( +. ) 0.0 per_file /. float_of_int (List.length per_file));
    offered_ops = (if Array.length tenants = 0 then ops else tenant_sum (fun t -> t.offered));
    shed_ops = tenant_sum (fun t -> t.shed);
    throttled_ops = tenant_sum (fun t -> t.throttled);
    stall_us = delta "nvlog.stall_us";
    b2b_cps = count "cp.b2b";
    b2b_episodes = count "cp.b2b_episodes";
    nvlog_exhausted = count "nvlog.exhausted";
    tenants =
      Array.map
        (fun (proc, t) ->
          { t_rate = Arrival.mean_rate proc; t_offered = t.offered; t_admitted = t.admitted;
            t_throttled = t.throttled; t_shed = t.shed;
            t_completed = Wafl_util.Histogram.count t.hist; t_write_latency = t.whist })
        tenants;
    races = Engine.race_report_count eng;
    flash_host_pages = flash_host;
    flash_gc_pages = flash_gc;
    flash_erases = count "flash.erases";
    flash_gc_stall_us = delta "flash.gc_stall_us";
    waf =
      (if flash_host = 0 then 1.0
       else float_of_int (flash_host + flash_gc) /. float_of_int flash_host);
    telemetry =
      Option.map
        (fun (roll, health) ->
          {
            tr_snapshot = Wafl_obs.Rollup.snapshot roll;
            tr_events = Wafl_obs.Health.events health;
            tr_health_dropped = Wafl_obs.Health.dropped health;
          })
        telem;
  }
