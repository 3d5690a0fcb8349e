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

(* Open-loop mode: tenants (one per arrival process) issue ops at their
   own pace regardless of completions, optionally behind per-volume QoS
   admission.  Pure data so specs stay structurally comparable. *)
type open_loop = {
  arrivals : Arrival.process list;
  qos : Wafl_qos.Qos.config option;
}

(* Always-on fleet telemetry (DESIGN.md §4.15): bounded-memory per-volume
   rollups plus the health watchdog, evaluated lazily from write-side
   calls — attaching it never perturbs a run.  Pure data so specs stay
   structurally comparable. *)
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
  telemetry : telemetry option;
  obs : Engine.t -> Wafl_obs.Trace.t;
      (* tracer factory, called once with the run's engine; the caller
         captures the returned tracer via a closure to read it after the
         run.  The default attaches nothing. *)
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
    telemetry = None;
    obs = (fun _ -> Wafl_obs.Trace.disabled);
  }

(* Per-tenant accounting for open-loop runs.  Offered/admitted/shed count
   arrivals inside the measure window; completed (and the latency
   histogram) cover those windowed arrivals that finished before the
   measurement ended, so an overloaded tenant's unbounded backlog shows
   up as admitted >> completed. *)
type tenant_stat = {
  t_rate : float;  (* configured mean offered rate, ops per virtual second *)
  t_offered : int;
  t_admitted : int;
  t_throttled : int;  (* admitted after a QoS queueing delay *)
  t_shed : int;
  t_completed : int;
  t_write_latency : Wafl_util.Histogram.t;
}

type result = {
  ops : int;
  duration : float;
  virtual_us : float;  (** the run's final virtual clock: warmup + window *)
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
  offered_ops : int;  (** open loop: arrivals in the window; closed loop: = ops *)
  shed_ops : int;
  throttled_ops : int;
  stall_us : float;  (** client time parked/paced in NVLog admission *)
  b2b_cps : int;
  b2b_episodes : int;
  nvlog_exhausted : int;  (** writes refused on an exhausted NVLog (must be 0 with watermarks) *)
  tenants : tenant_stat array;  (** per-tenant breakdown; [||] for closed-loop runs *)
  races : int;  (** race-detector reports (0 unless [sanitize]; must stay 0) *)
  (* flash media model, measured over the window; all zero / 1.0 without
     a media model attached *)
  flash_host_pages : int;
  flash_gc_pages : int;
  flash_erases : int;
  flash_gc_stall_us : float;
  waf : float;  (** (host + gc pages) / host pages over the window; 1.0 when idle *)
  telemetry : telemetry_result option;  (** rollup snapshot + health events, when enabled *)
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

type op = Read of int | Write of int | Meta (* block index within the client's space *)

type client_files = { vol : Volume.t; files : File.t array; file_blocks : int }

(* Each client owns [files] in one volume; ops address a flat block space
   across them so one generator serves all workloads. *)
let op_target cf idx =
  let file = cf.files.(idx / cf.file_blocks) in
  let fbn = idx mod cf.file_blocks in
  (file, fbn)

let total_blocks cf = Array.length cf.files * cf.file_blocks

let gen_op workload rng cf cursor =
  match workload with
  | Seq_write _ ->
      let idx = !cursor in
      cursor := (idx + 1) mod total_blocks cf;
      Write idx
  | Rand_write _ -> Write (Wafl_util.Rng.int rng (total_blocks cf))
  | Skewed_write { hot_fraction; hot_rate; _ } ->
      (* The first [hot_fraction] of the blocks takes [hot_rate] of the
         writes — the hot/cold lifetime skew the flash streaming policy
         exploits. *)
      let total = total_blocks cf in
      let hot = max 1 (min (total - 1) (int_of_float (hot_fraction *. float_of_int total))) in
      if Wafl_util.Rng.float rng 1.0 < hot_rate then Write (Wafl_util.Rng.int rng hot)
      else Write (hot + Wafl_util.Rng.int rng (total - hot))
  | Mixed_write { random_fraction; _ } ->
      if Wafl_util.Rng.float rng 1.0 < random_fraction then
        Write (Wafl_util.Rng.int rng (total_blocks cf))
      else begin
        let idx = !cursor in
        cursor := (idx + 1) mod total_blocks cf;
        Write idx
      end
  | Oltp { read_fraction; _ } ->
      let idx = Wafl_util.Rng.int rng (total_blocks cf) in
      if Wafl_util.Rng.float rng 1.0 < read_fraction then Read idx else Write idx
  | Nfs_mix _ ->
      (* 40% reads, 40% small writes, 20% metadata operations. *)
      let p = Wafl_util.Rng.float rng 1.0 in
      let idx = Wafl_util.Rng.int rng (total_blocks cf) in
      if p < 0.4 then Read idx else if p < 0.8 then Write idx else Meta

(* --- the measured run ---------------------------------------------------- *)

type recorder = {
  mutable recording : bool;
  mutable ops : int;
  mutable reads : int;
  mutable writes : int;
  mutable metas : int;
  hist : Wafl_util.Histogram.t;
  whist : Wafl_util.Histogram.t; (* writes only: end-to-end latency *)
}

type tenant_acc = {
  mutable a_offered : int;
  mutable a_admitted : int;
  mutable a_throttled : int;
  mutable a_shed : int;
  mutable a_completed : int;
  a_whist : Wafl_util.Histogram.t;
}

let stripe_of_fbn fbn = fbn / 1024 mod 16

let run spec =
  let eng = Engine.create ~cores:spec.cores ~sanitize:spec.sanitize () in
  let user_obs = spec.obs eng in
  (* Telemetry needs a live metrics registry; when no full tracer is
     attached, the metrics-only tracer provides one without recording
     spans or installing engine hooks. *)
  let obs =
    if Wafl_obs.Trace.enabled user_obs || spec.telemetry = None then user_obs
    else Wafl_obs.Trace.metrics_only eng
  in
  let agg =
    Aggregate.create eng ~cost:spec.cost ~geometry:spec.geometry ~nvlog_half:spec.nvlog_half
      ?nvlog_watermarks:spec.watermarks ?flash:spec.flash ~cache_blocks:spec.cache_blocks ~obs
      ()
  in
  let walloc = Wafl_core.Walloc.create ~obs agg spec.cfg in
  let cp = Wafl_core.Walloc.cp walloc in
  let infra = Wafl_core.Walloc.infra walloc in
  let pool = Wafl_core.Walloc.pool walloc in
  (* Fleet telemetry: register cumulative sources over the existing
     counters and metrics; windows seal lazily from the per-op feeds
     below, so no fiber is spawned and the run stays bit-identical. *)
  let telem =
    match spec.telemetry with
    | None -> None
    | Some tcfg ->
        let roll = Wafl_obs.Rollup.create ~config:tcfg.rollup eng in
        let health = Wafl_obs.Health.create ~rules:tcfg.rules roll in
        let m = Wafl_obs.Trace.metrics obs in
        let ctrs = Aggregate.counters agg in
        Wafl_obs.Rollup.add_source roll ~name:"cp.count" (fun () ->
            float_of_int (Wafl_core.Cp.cps_completed cp));
        Wafl_obs.Rollup.add_source roll ~name:"cp.b2b" (fun () ->
            float_of_int (Counters.read ctrs "b2b_cps"));
        Wafl_obs.Rollup.add_source roll ~name:"nvlog.stall_us" (fun () ->
            Aggregate.stall_time agg);
        Wafl_obs.Rollup.add_source roll ~name:"nvlog.hard_dwell_us" (fun () ->
            Aggregate.hard_dwell_time agg);
        Wafl_obs.Rollup.add_source roll ~name:"flash.gc_stall_us" (fun () ->
            List.fold_left
              (fun acc ftl -> acc +. Wafl_flash.Ftl.gc_stall_us ftl)
              0.0 (Aggregate.ftls agg));
        Wafl_obs.Rollup.add_source roll ~name:"rebuild.blocks" (fun () ->
            float_of_int
              (Array.fold_left
                 (fun acc r -> acc + Wafl_storage.Raid.rebuild_blocks r)
                 0 (Aggregate.raid_groups agg)));
        Wafl_obs.Rollup.add_source roll ~name:"qos.shed_ops" (fun () ->
            Wafl_obs.Metrics.counter_value m "qos.shed_ops");
        (* Ring drops only exist on a user-attached tracer; the internal
           metrics-only tracer records nothing. *)
        if Wafl_obs.Trace.enabled user_obs then
          Wafl_obs.Rollup.add_source roll ~name:"trace.drops" (fun () ->
              float_of_int (Wafl_obs.Trace.dropped user_obs));
        Wafl_obs.Rollup.add_gauge roll ~name:"rebuild.active" (fun () ->
            float_of_int
              (Array.fold_left
                 (fun acc r -> acc + if Wafl_storage.Raid.degraded r then 1 else 0)
                 0 (Aggregate.raid_groups agg)));
        List.iter
          (fun name -> Wafl_obs.Rollup.add_hsource roll ~name (fun () -> Wafl_obs.Metrics.histo m name))
          [
            "op.e2e_us.write";
            "qos.queue_wait_us";
            "cp.duration_us";
            "cp.phase_us.cleaning";
            "cp.phase_us.flush";
            "cp.phase_us.metafiles";
            "cp.phase_us.io-flush";
          ];
        Some (roll, health)
  in
  let files_per_client, file_blocks =
    match spec.workload with
    | Seq_write { file_blocks }
    | Rand_write { file_blocks }
    | Skewed_write { file_blocks; _ }
    | Mixed_write { file_blocks; _ }
    | Oltp { file_blocks; _ } ->
        (1, file_blocks)
    | Nfs_mix { files_per_client; file_blocks } -> (files_per_client, file_blocks)
  in
  let working_set = spec.clients * files_per_client * file_blocks in
  let capacity = Geometry.total_data_blocks spec.geometry in
  if working_set * 3 / 2 >= capacity then
    invalid_arg
      (Printf.sprintf "Driver.run: working set %d too large for aggregate of %d blocks"
         working_set capacity);
  (* --- setup and prefill (not measured) --- *)
  let client_files = Array.make spec.clients None in
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
         for c = 0 to spec.clients - 1 do
           let vol = vols.(c mod spec.volumes) in
           let files =
             Array.init files_per_client (fun _ ->
                 Aggregate.create_file agg ~vol:(Volume.id vol))
           in
           client_files.(c) <- Some { vol; files; file_blocks }
         done;
         (* Prefill every block once so steady-state writes are
            overwrites (as on a system that has been running). *)
         let token = ref 0L in
         Array.iter
           (fun cf ->
             match cf with
             | None -> ()
             | Some cf ->
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
           client_files;
         Wafl_core.Cp.run_now cp;
         setup_done := true));
  (* The CP timer fiber never exits, so the engine is never idle; run in
     bounded slices until the prefill completes. *)
  while not !setup_done do
    Engine.run ~until:(Engine.now eng +. 1_000_000.0) eng
  done;
  (* --- clients --- *)
  let sched = Wafl_core.Walloc.scheduler walloc in
  let rec_ =
    {
      recording = false;
      ops = 0;
      reads = 0;
      writes = 0;
      metas = 0;
      hist = Wafl_util.Histogram.create ();
      whist = Wafl_util.Histogram.create ();
    }
  in
  (* End-to-end latency decomposition (DESIGN.md §4.10): per-op-kind
     histograms plus the time writes spend throttled behind CP progress.
     On a disabled tracer these land in a throwaway registry. *)
  let obs_on = Wafl_obs.Trace.enabled obs in
  let m = Wafl_obs.Trace.metrics obs in
  let h_e2e_read = Wafl_obs.Metrics.histogram m "op.e2e_us.read" in
  let h_e2e_write = Wafl_obs.Metrics.histogram m "op.e2e_us.write" in
  let h_e2e_meta = Wafl_obs.Metrics.histogram m "op.e2e_us.meta" in
  let h_throttle = Wafl_obs.Metrics.histogram m "op.throttle_us" in
  let h_qos_wait = Wafl_obs.Metrics.histogram m "qos.queue_wait_us" in
  let c_qos_admitted = Wafl_obs.Metrics.counter m "qos.admitted_ops" in
  let c_qos_throttled = Wafl_obs.Metrics.counter m "qos.throttled_ops" in
  let c_qos_shed = Wafl_obs.Metrics.counter m "qos.shed_ops" in
  let stop = ref false in
  let master_rng = Wafl_util.Rng.create ~seed:spec.seed in
  let active_samples = ref 0 and active_sum = ref 0 in
  (* Waiting for NVLog space is where CP back-pressure surfaces in
     client latency; measure it separately so the decomposition can
     distinguish throttling from service time. *)
  let throttled_wait () =
    if obs_on then begin
      let w0 = Engine.now eng in
      Aggregate.wait_for_log_space agg;
      Wafl_obs.Metrics.observe h_throttle (Engine.now eng -. w0)
    end
    else Aggregate.wait_for_log_space agg
  in
  (* One client operation, executed as one causal root: the context
     follows the op through its Waffinity message (and any downstream
     handoffs), and the op span below closes the request's end-to-end
     interval.  Shared by the closed- and open-loop paths; [started] is
     the op's arrival time (for open loop, before any QoS delay). *)
  let exec_op ~cf ~content ~started op =
    Wafl_obs.Causal.with_root obs (fun () ->
        let kind =
          match op with
          | Read idx ->
              let file, fbn = op_target cf idx in
              Sched.post_wait sched
                ~affinity:(Aff.Stripe (0, Volume.id cf.vol, stripe_of_fbn fbn))
                ~label:"client"
                (fun () ->
                  Engine.consume spec.cost.Cost.client_read;
                  let _, status =
                    Aggregate.read_cached_status agg ~vol:(Volume.id cf.vol)
                      ~file:(File.id file) ~fbn
                  in
                  match status with
                  | `Miss -> Engine.consume spec.cost.Cost.read_miss
                  | `Hit | `Buffered -> ());
              `R
          | Write idx ->
              (* Throttle against CP progress before consuming NVRAM
                 (the message body itself must never park). *)
              throttled_wait ();
              let file, fbn = op_target cf idx in
              let status =
                Sched.post_wait sched
                  ~affinity:(Aff.Stripe (0, Volume.id cf.vol, stripe_of_fbn fbn))
                  ~label:"client"
                  (fun () ->
                    (let c = spec.cost in
                     match spec.workload with
                     | Seq_write _ | Nfs_mix _ -> Engine.consume c.Cost.client_write
                     | Rand_write _ | Skewed_write _ | Oltp _ ->
                         Engine.consume c.Cost.client_write_random
                     | Mixed_write { random_fraction; _ } ->
                         (* Interpolate the client-side cost with the mix. *)
                         Engine.consume
                           ((c.Cost.client_write *. (1.0 -. random_fraction))
                           +. (c.Cost.client_write_random *. random_fraction)));
                    Aggregate.write agg ~vol:(Volume.id cf.vol) ~file:(File.id file) ~fbn
                      ~content)
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
              Sched.post_wait sched
                ~affinity:(Aff.Volume_logical (0, Volume.id cf.vol))
                ~label:"client"
                (fun () -> Engine.consume spec.cost.Cost.client_meta);
              `M
        in
        if obs_on then begin
          (* Recorded inside the root so the op span carries its
             request context. *)
          let name, h =
            match kind with
            | `R -> ("read", h_e2e_read)
            | `W -> ("write", h_e2e_write)
            | `M -> ("meta", h_e2e_meta)
          in
          let dur = Engine.now eng -. started in
          Wafl_obs.Metrics.observe h dur;
          Wafl_obs.Trace.complete obs ~cat:"op" ~name ~ts:started ~dur ()
        end;
        (match telem with
        | Some (roll, _) when kind = `W ->
            Wafl_obs.Rollup.observe_write roll ~vol:(Volume.id cf.vol)
              (Engine.now eng -. started)
        | _ -> ());
        kind)
  in
  let telem_count vol kind =
    match telem with Some (roll, _) -> Wafl_obs.Rollup.count roll ~vol kind | None -> ()
  in
  let n_tenants = match spec.open_loop with None -> 0 | Some ol -> List.length ol.arrivals in
  let tstats =
    Array.init n_tenants (fun _ ->
        {
          a_offered = 0;
          a_admitted = 0;
          a_throttled = 0;
          a_shed = 0;
          a_completed = 0;
          a_whist = Wafl_util.Histogram.create ();
        })
  in
  (match spec.open_loop with
  | None ->
      (* Closed loop: each client keeps one op outstanding. *)
      for c = 0 to spec.clients - 1 do
        let cf = match client_files.(c) with Some cf -> cf | None -> assert false in
        let rng = Wafl_util.Rng.split master_rng in
        let cursor = ref (Wafl_util.Rng.int rng (total_blocks cf)) in
        let token = ref (Int64.of_int ((c + 1) * 1_000_000)) in
        ignore
          (Engine.spawn eng ~label:"client" (fun () ->
               while not !stop do
                 let started = Engine.now eng in
                 let op = gen_op spec.workload rng cf cursor in
                 let content =
                   match op with
                   | Write _ ->
                       token := Int64.add !token 1L;
                       !token
                   | Read _ | Meta -> 0L
                 in
                 telem_count (Volume.id cf.vol) `Admitted;
                 let kind = exec_op ~cf ~content ~started op in
                 telem_count (Volume.id cf.vol) `Completed;
                 if rec_.recording then begin
                   (* the recorder is shared by every client fiber; the
                      real system's stats counters are atomics *)
                   Engine.probe_atomic eng ~shared:"driver.recorder";
                   rec_.ops <- rec_.ops + 1;
                   let e2e = Engine.now eng -. started in
                   (match kind with
                   | `R -> rec_.reads <- rec_.reads + 1
                   | `W ->
                       rec_.writes <- rec_.writes + 1;
                       Wafl_util.Histogram.add rec_.whist e2e
                   | `M -> rec_.metas <- rec_.metas + 1);
                   Wafl_util.Histogram.add rec_.hist e2e
                 end;
                 if spec.think_time > 0.0 then
                   Engine.sleep (Wafl_util.Rng.exponential rng ~mean:spec.think_time)
                 else Engine.yield ()
               done))
      done
  | Some ol ->
      (* Open loop: tenant i's arrival fiber issues ops on its own clock
         (each op runs in a freshly spawned fiber), optionally behind
         per-volume QoS admission.  An op arriving inside the measure
         window is recorded at completion — including after the window
         closes — so queueing inflicted by overload is visible rather
         than censored; ops still in flight when the measurement ends
         show up as admitted - completed backlog. *)
      let qos = Option.map (Wafl_qos.Qos.create ~eng) ol.qos in
      List.iteri
        (fun i proc ->
          let cf =
            match client_files.(i mod spec.clients) with Some cf -> cf | None -> assert false
          in
          let rng = Wafl_util.Rng.split master_rng in
          let arr = Arrival.start proc ~rng in
          let cursor = ref (Wafl_util.Rng.int rng (total_blocks cf)) in
          let token = ref (Int64.of_int ((i + 1) * 1_000_000)) in
          let st = tstats.(i) in
          ignore
            (Engine.spawn eng ~label:"arrival" (fun () ->
                 while not !stop do
                   Engine.sleep (Arrival.next arr ~now:(Engine.now eng));
                   if not !stop then begin
                     (* per-tenant accounting is updated from this
                        arrival fiber and every op-completion fiber *)
                     Engine.probe_atomic eng ~shared:"driver.tenants";
                     let windowed = rec_.recording in
                     if windowed then st.a_offered <- st.a_offered + 1;
                     let op = gen_op spec.workload rng cf cursor in
                     let content =
                       match op with
                       | Write _ ->
                           token := Int64.add !token 1L;
                           !token
                       | Read _ | Meta -> 0L
                     in
                     let verdict =
                       match qos with
                       | None -> `Admit
                       | Some q ->
                           Wafl_qos.Qos.admit q ~vol:(Volume.id cf.vol) ~now:(Engine.now eng)
                     in
                     match verdict with
                     | `Shed ->
                         if windowed then st.a_shed <- st.a_shed + 1;
                         telem_count (Volume.id cf.vol) `Shed;
                         Wafl_obs.Metrics.incr c_qos_shed
                     | (`Admit | `Delay _) as verdict ->
                         let delay = match verdict with `Delay d -> d | `Admit -> 0.0 in
                         if windowed then begin
                           st.a_admitted <- st.a_admitted + 1;
                           if delay > 0.0 then st.a_throttled <- st.a_throttled + 1
                         end;
                         telem_count (Volume.id cf.vol) `Admitted;
                         if delay > 0.0 then telem_count (Volume.id cf.vol) `Throttled;
                         Wafl_obs.Metrics.incr c_qos_admitted;
                         if delay > 0.0 then begin
                           Wafl_obs.Metrics.incr c_qos_throttled;
                           Wafl_obs.Metrics.observe h_qos_wait delay
                         end;
                         let started = Engine.now eng in
                         ignore
                           (Engine.spawn eng ~label:"client" (fun () ->
                                if delay > 0.0 then Engine.sleep delay;
                                let kind = exec_op ~cf ~content ~started op in
                                telem_count (Volume.id cf.vol) `Completed;
                                let e2e = Engine.now eng -. started in
                                if windowed then begin
                                  Engine.probe_atomic eng ~shared:"driver.tenants";
                                  Engine.probe_atomic eng ~shared:"driver.recorder";
                                  st.a_completed <- st.a_completed + 1;
                                  rec_.ops <- rec_.ops + 1;
                                  (match kind with
                                  | `R -> rec_.reads <- rec_.reads + 1
                                  | `W ->
                                      rec_.writes <- rec_.writes + 1;
                                      Wafl_util.Histogram.add rec_.whist e2e;
                                      Wafl_util.Histogram.add st.a_whist e2e
                                  | `M -> rec_.metas <- rec_.metas + 1);
                                  Wafl_util.Histogram.add rec_.hist e2e
                                end))
                   end
                 done)))
        ol.arrivals);
  (* Sample the active cleaner-thread count through the measurement. *)
  ignore
    (Engine.spawn eng ~label:"sampler" (fun () ->
         while not !stop do
           Engine.sleep 10_000.0;
           if rec_.recording then begin
             Engine.probe_atomic eng ~shared:"driver.recorder";
             incr active_samples;
             active_sum := !active_sum + Wafl_core.Cleaner_pool.active pool
           end
         done));
  (* --- warmup --- *)
  Engine.run ~until:(Engine.now eng +. spec.warmup) eng;
  Engine.reset_accounting eng;
  rec_.recording <- true;
  let base_cps = Wafl_core.Cp.cps_completed cp in
  let base_buffers = Wafl_core.Cleaner_pool.buffers_cleaned pool in
  let base_alloc = Wafl_core.Infra.vbns_allocated infra in
  let base_freed = Wafl_core.Infra.vbns_freed infra in
  let base_touched = Wafl_core.Infra.metafile_blocks_touched infra in
  let base_imsgs = Wafl_core.Infra.messages_posted infra in
  let base_cmsgs = Wafl_core.Cleaner_pool.messages_processed pool in
  let base_waits = Wafl_core.Cleaner_pool.get_waits pool in
  let stripes_of f = Array.fold_left (fun acc r -> acc + f r) 0 (Aggregate.raid_groups agg) in
  let base_full = stripes_of Wafl_storage.Raid.full_stripes in
  let base_partial = stripes_of Wafl_storage.Raid.partial_stripes in
  let ctrs = Aggregate.counters agg in
  let base_stall = Aggregate.stall_time agg in
  let ftls = Aggregate.ftls agg in
  let flash_sum f = List.fold_left (fun acc ftl -> acc + f ftl) 0 ftls in
  let flash_sumf f = List.fold_left (fun acc ftl -> acc +. f ftl) 0.0 ftls in
  let base_fhost = flash_sum Wafl_flash.Ftl.host_pages in
  let base_fgc = flash_sum Wafl_flash.Ftl.gc_pages in
  let base_ferase = flash_sum Wafl_flash.Ftl.erases in
  let base_fstall = flash_sumf Wafl_flash.Ftl.gc_stall_us in
  let base_b2b = Counters.read ctrs "b2b_cps" in
  let base_b2b_ep = Counters.read ctrs "b2b_episodes" in
  let base_exh = Counters.read ctrs "nvlog_exhausted_writes" in
  (* --- measurement --- *)
  let t0 = Engine.now eng in
  Engine.run ~until:(t0 +. spec.measure) eng;
  rec_.recording <- false;
  let duration = Engine.now eng -. t0 in
  let result =
    {
      ops = rec_.ops;
      duration;
      virtual_us = Engine.now eng;
      throughput = float_of_int rec_.ops /. duration *. 1_000_000.0;
      throughput_per_client =
        float_of_int rec_.ops /. duration *. 1_000_000.0 /. float_of_int spec.clients;
      latency = rec_.hist;
      write_latency = rec_.whist;
      reads = rec_.reads;
      writes = rec_.writes;
      metas = rec_.metas;
      cores_client = Engine.cores_used eng "client";
      cores_cleaner = Engine.cores_used eng "cleaner";
      cores_infra = Engine.cores_used eng "infra";
      cores_cp = Engine.cores_used eng "cp";
      cores_io_other =
        Engine.cores_used eng "io" +. Engine.cores_used eng "other"
        +. Engine.cores_used eng "sampler" +. Engine.cores_used eng "tuner";
      utilization = Engine.utilization eng;
      cps_completed = Wafl_core.Cp.cps_completed cp - base_cps;
      buffers_cleaned = Wafl_core.Cleaner_pool.buffers_cleaned pool - base_buffers;
      vbns_allocated = Wafl_core.Infra.vbns_allocated infra - base_alloc;
      vbns_freed = Wafl_core.Infra.vbns_freed infra - base_freed;
      metafile_blocks_touched = Wafl_core.Infra.metafile_blocks_touched infra - base_touched;
      infra_messages = Wafl_core.Infra.messages_posted infra - base_imsgs;
      cleaner_messages = Wafl_core.Cleaner_pool.messages_processed pool - base_cmsgs;
      get_waits = Wafl_core.Cleaner_pool.get_waits pool - base_waits;
      avg_active_cleaners =
        (if !active_samples = 0 then float_of_int (Wafl_core.Cleaner_pool.active pool)
         else float_of_int !active_sum /. float_of_int !active_samples);
      full_stripes = stripes_of Wafl_storage.Raid.full_stripes - base_full;
      partial_stripes = stripes_of Wafl_storage.Raid.partial_stripes - base_partial;
      read_contiguity =
        (let total = ref 0.0 and n = ref 0 in
         Array.iter
           (fun cf ->
             match cf with
             | None -> ()
             | Some cf ->
                 Array.iter
                   (fun f ->
                     total := !total +. measure_contiguity cf.vol f;
                     incr n)
                   cf.files)
           client_files;
         if !n = 0 then 0.0 else !total /. float_of_int !n);
      offered_ops =
        (if n_tenants = 0 then rec_.ops
         else Array.fold_left (fun a st -> a + st.a_offered) 0 tstats);
      shed_ops = Array.fold_left (fun a st -> a + st.a_shed) 0 tstats;
      throttled_ops = Array.fold_left (fun a st -> a + st.a_throttled) 0 tstats;
      stall_us = Aggregate.stall_time agg -. base_stall;
      b2b_cps = Counters.read ctrs "b2b_cps" - base_b2b;
      b2b_episodes = Counters.read ctrs "b2b_episodes" - base_b2b_ep;
      nvlog_exhausted = Counters.read ctrs "nvlog_exhausted_writes" - base_exh;
      tenants =
        (match spec.open_loop with
        | None -> [||]
        | Some ol ->
            let procs = Array.of_list ol.arrivals in
            Array.mapi
              (fun i st ->
                {
                  t_rate = Arrival.mean_rate procs.(i);
                  t_offered = st.a_offered;
                  t_admitted = st.a_admitted;
                  t_throttled = st.a_throttled;
                  t_shed = st.a_shed;
                  t_completed = st.a_completed;
                  t_write_latency = st.a_whist;
                })
              tstats);
      races = Engine.race_report_count eng;
      flash_host_pages = flash_sum Wafl_flash.Ftl.host_pages - base_fhost;
      flash_gc_pages = flash_sum Wafl_flash.Ftl.gc_pages - base_fgc;
      flash_erases = flash_sum Wafl_flash.Ftl.erases - base_ferase;
      flash_gc_stall_us = flash_sumf Wafl_flash.Ftl.gc_stall_us -. base_fstall;
      waf =
        (let host = flash_sum Wafl_flash.Ftl.host_pages - base_fhost in
         let gc = flash_sum Wafl_flash.Ftl.gc_pages - base_fgc in
         if host = 0 then 1.0 else float_of_int (host + gc) /. float_of_int host);
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
  in
  Aggregate.refresh_flash_counters agg;
  stop := true;
  result
