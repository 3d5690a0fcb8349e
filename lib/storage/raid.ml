open Wafl_sim

type 'b request =
  | Io of {
      writes : (Geometry.vbn * 'b) list;
      on_complete : unit -> unit;
      submitted_at : float;
      h : Wafl_obs.Causal.handoff; (* submitter's causal context *)
    }
  | Stop

type 'b t = {
  eng : Engine.t;
  cost : Cost.t;
  disk : 'b Disk.t;
  rg : int;
  flash : Wafl_flash.Ftl.t option; (* FTL media model, None = flat slab *)
  mutable stream_of : 'b -> int; (* payload -> flash write stream *)
  obs : Wafl_obs.Trace.t;
  obs_on : bool; (* Trace.enabled obs, hoisted off the hot path *)
  causal_on : bool; (* Causal.enabled obs, hoisted likewise *)
  m_service : Wafl_obs.Metrics.histo;
  m_wait : Wafl_obs.Metrics.histo;
  m_ios : Wafl_obs.Metrics.counter;
  m_blocks : Wafl_obs.Metrics.counter;
  data_width : int;
  mutable stripe_counts : int array; (* all zero between I/Os; see [stripe_mix] *)
  queue_depth : int;
  queue : 'b request Sync.Channel.t;
  done_q : Sync.Waitq.t;
  mutable outstanding : int;
  mutable ios : int;
  mutable blocks : int;
  mutable full : int;
  mutable partial : int;
  mutable busy : float;
  (* fault surface *)
  mutable degraded : bool;
  mutable rebuild_spawned : bool;
  mutable failed_writes : (Geometry.vbn * 'b) list; (* newest first *)
  mutable retries : int;
  mutable degraded_reads_served : int;
  mutable rebuilt : int;
}

(* Count full vs partial stripes in one I/O: a stripe (distinct dbn) is
   full when every data drive of the group contributes a block.  Blocks
   are tallied per dbn in [stripe_counts] over the I/O's dbn span (one
   Allocation Area or so for a tetris I/O), and the closing scan zeroes
   the tallies again. *)
let stripe_mix t writes =
  let geom = Disk.geometry t.disk in
  let lo = ref max_int and hi = ref (-1) in
  List.iter
    (fun (vbn, _) ->
      if Geometry.rg_of geom vbn <> t.rg then invalid_arg "Raid.submit: vbn not in this group";
      let d = Geometry.dbn_of geom vbn in
      if d < !lo then lo := d;
      if d > !hi then hi := d)
    writes;
  let span = !hi - !lo + 1 in
  if span > Array.length t.stripe_counts then t.stripe_counts <- Array.make span 0;
  let counts = t.stripe_counts in
  List.iter
    (fun (vbn, _) ->
      let i = Geometry.dbn_of geom vbn - !lo in
      counts.(i) <- counts.(i) + 1)
    writes;
  let full = ref 0 and partial = ref 0 in
  for i = 0 to span - 1 do
    let n = counts.(i) in
    if n > 0 then begin
      if n >= t.data_width then incr full else incr partial;
      counts.(i) <- 0
    end
  done;
  (!full, !partial)

(* Reconstruct the lost drive onto a spare, one stripe block at a time.
   Progress lives in the fault plan (it survives a crash; a re-created
   group resumes where the old fiber stopped), and the device-busy cost
   is charged to this group. *)
let rebuild_fiber t fault (failure : Fault.disk_failure) () =
  let nblocks = Geometry.drive_blocks (Disk.geometry t.disk) in
  while failure.Fault.rebuilt_to < nblocks do
    Engine.sleep t.cost.Cost.rebuild_block;
    (* rebuild progress lives in the shared fault plan, also read by the
       service fiber and the crash harness *)
    Engine.probe_atomic t.eng ~shared:"raid.fault";
    t.busy <- t.busy +. t.cost.Cost.rebuild_block;
    failure.Fault.rebuilt_to <- failure.Fault.rebuilt_to + 1;
    t.rebuilt <- t.rebuilt + 1;
    Fault.note_rebuild_block fault
  done;
  failure.Fault.rebuild_done <- true;
  t.degraded <- false

let active_failure t =
  match Disk.fault t.disk with
  | None -> None
  | Some f -> Fault.failure_for f ~rg:t.rg ~now:(Engine.now t.eng)

(* Notice a scheduled disk failure: flip into degraded mode and start the
   background rebuild (resuming a pre-crash rebuild when recovering). *)
let check_failure t =
  if not (t.degraded && t.rebuild_spawned) then
    match active_failure t with
    | None -> ()
    | Some failure ->
        t.degraded <- true;
        if not t.rebuild_spawned then begin
          t.rebuild_spawned <- true;
          let fault = Option.get (Disk.fault t.disk) in
          ignore (Engine.spawn t.eng ~label:"rebuild" (rebuild_fiber t fault failure))
        end

let service_fiber t () =
  let rec loop () =
    match Sync.Channel.recv t.queue with
    | Stop -> ()
    | Io { writes; on_complete; submitted_at; h } ->
        (* The service fiber picks up the request: the submitter's causal
           context becomes this fiber's, so the I/O span (and the queue
           wait it reveals) attribute to the submitting CP. *)
        Wafl_obs.Causal.restore t.obs ~kind:"raid" h;
        let wait = Engine.now t.eng -. submitted_at in
        if t.obs_on then Wafl_obs.Metrics.observe t.m_wait wait;
        check_failure t;
        (* the device block map and the fault plan's bookkeeping are
           touched from this service fiber, client read paths and the
           crash harness; the real device serializes them *)
        Engine.probe_atomic t.eng ~shared:"disk.blocks";
        Engine.probe_atomic t.eng ~shared:"raid.fault";
        let fault = Disk.fault t.disk in
        (* Transient failures: bounded exponential backoff in virtual
           time, so retry latency shows up in CP duration. *)
        let outcome =
          match fault with
          | None -> `Proceed
          | Some f ->
              let rec attempt n backoff =
                if not (Fault.transient_now f) then `Proceed
                else if n >= Fault.max_retries f then `Give_up
                else begin
                  Fault.note_transient_retry f;
                  t.retries <- t.retries + 1;
                  Engine.sleep backoff;
                  t.busy <- t.busy +. backoff;
                  attempt (n + 1) (backoff *. 2.0)
                end
              in
              attempt 0 t.cost.Cost.transient_retry_backoff
        in
        let full, partial = stripe_mix t writes in
        let nblocks = List.length writes in
        let service =
          t.cost.Cost.device_base_latency
          +. (float_of_int nblocks *. t.cost.Cost.device_write_per_block)
          +. (float_of_int partial *. t.cost.Cost.parity_read_penalty)
        in
        let t0 = Engine.now t.eng in
        Engine.sleep service;
        Wafl_obs.Metrics.observe t.m_service service;
        Wafl_obs.Metrics.incr t.m_ios;
        Wafl_obs.Metrics.add t.m_blocks nblocks;
        if t.obs_on then
          Wafl_obs.Trace.complete t.obs ~cat:"raid" ~name:"raid io" ~ts:t0 ~dur:service
            ~num_args:
              (let base =
                 [
                   ("rg", float_of_int t.rg);
                   ("blocks", float_of_int nblocks);
                   ("full_stripes", float_of_int full);
                   ("partial_stripes", float_of_int partial);
                 ]
               in
               if t.causal_on then ("wait_us", wait) :: base else base)
            ();
        let failed, ok =
          match outcome with
          | `Give_up -> (writes, []) (* retries exhausted: nothing became durable *)
          | `Proceed ->
              List.partition
                (fun (vbn, _) ->
                  match fault with Some f when Fault.write_fails f vbn -> true | _ -> false)
                writes
        in
        List.iter (fun (vbn, payload) -> Disk.write t.disk vbn payload) ok;
        (* With a flash model attached, the durable writes also program
           NAND pages: this charges program time and any GC-induced stall
           before on_complete, so media push-back shows up in CP write
           latency. *)
        (match t.flash with
        | None -> ()
        | Some ftl ->
            let geom = Disk.geometry t.disk in
            Wafl_flash.Ftl.host_write ftl
              (List.map
                 (fun (vbn, payload) -> (Geometry.rg_offset geom vbn, t.stream_of payload))
                 ok));
        if failed <> [] then t.failed_writes <- List.rev_append failed t.failed_writes;
        t.ios <- t.ios + 1;
        t.blocks <- t.blocks + nblocks;
        t.full <- t.full + full;
        t.partial <- t.partial + partial;
        t.busy <- t.busy +. service;
        on_complete ();
        (* Service fibers are reused across unrelated requests: deactivate
           this request's causal context before dequeuing the next. *)
        if t.obs_on then Wafl_obs.Causal.fiber_reset t.obs;
        t.outstanding <- t.outstanding - 1;
        if t.outstanding = 0 then ignore (Sync.Waitq.wake_all t.done_q);
        loop ()
  in
  loop ()

let create ?(queue_depth = 4) ?(obs = Wafl_obs.Trace.disabled) ?flash eng ~cost ~disk ~rg =
  if queue_depth <= 0 then invalid_arg "Raid.create: queue_depth must be positive";
  let m = Wafl_obs.Trace.metrics obs in
  let t =
    {
      eng;
      cost;
      disk;
      rg;
      flash;
      stream_of = (fun _ -> 0);
      obs;
      obs_on = Wafl_obs.Trace.enabled obs;
      causal_on = Wafl_obs.Causal.enabled obs;
      m_service = Wafl_obs.Metrics.histogram m "raid.io_service_us";
      m_wait = Wafl_obs.Metrics.histogram m "raid.io_wait_us";
      m_ios = Wafl_obs.Metrics.counter m "raid.ios";
      m_blocks = Wafl_obs.Metrics.counter m "raid.blocks";
      data_width = Geometry.data_drives (Disk.geometry disk) ~rg;
      stripe_counts = [||];
      queue_depth;
      queue = Sync.Channel.create eng;
      done_q = Sync.Waitq.create eng;
      outstanding = 0;
      ios = 0;
      blocks = 0;
      full = 0;
      partial = 0;
      busy = 0.0;
      degraded = false;
      rebuild_spawned = false;
      failed_writes = [];
      retries = 0;
      degraded_reads_served = 0;
      rebuilt = 0;
    }
  in
  for _ = 1 to queue_depth do
    ignore (Engine.spawn eng ~label:"io" (service_fiber t))
  done;
  (* A drive lost before a crash is still lost after recovery: resume the
     degraded mode and rebuild immediately. *)
  check_failure t;
  t

let rg t = t.rg
let flash t = t.flash
let set_stream_of t f = t.stream_of <- f

(* FTL logical page number of a VBN: RG-local, one page per data block. *)
let lpn_of t vbn = Geometry.rg_offset (Disk.geometry t.disk) vbn

let trim t vbn =
  match t.flash with
  | None -> ()
  | Some ftl -> Wafl_flash.Ftl.trim ftl ~lpn:(lpn_of t vbn)

let read t vbn =
  let geom = Disk.geometry t.disk in
  if Geometry.rg_of geom vbn <> t.rg then invalid_arg "Raid.read: vbn not in this group";
  check_failure t;
  match Disk.fault t.disk with
  | None -> ( match Disk.read t.disk vbn with Some p -> `Ok p | None -> `Absent)
  | Some fault -> (
      let loc = Geometry.locate geom vbn in
      let failure =
        if t.degraded then Fault.failure_for fault ~rg:t.rg ~now:(Engine.now t.eng) else None
      in
      let on_failed_drive =
        match failure with
        | Some f ->
            f.Fault.fail_drive = loc.Geometry.drive && loc.Geometry.dbn >= f.Fault.rebuilt_to
        | None -> false
      in
      if on_failed_drive then begin
        (* Reconstruct from the surviving drives of the stripe; a latent
           media error on any of them makes the stripe unrecoverable. *)
        let peers_clean =
          List.for_all
            (fun (drive, _) ->
              drive = loc.Geometry.drive
              || not
                   (Fault.media_error fault
                      (Geometry.vbn_of geom ~rg:t.rg ~drive ~dbn:loc.Geometry.dbn)))
            (Geometry.drives_of_rg geom ~rg:t.rg)
        in
        if not peers_clean then begin
          Fault.note_unrecoverable fault;
          `Lost
        end
        else begin
          Fault.note_degraded_read fault;
          t.degraded_reads_served <- t.degraded_reads_served + 1;
          match Disk.read t.disk vbn with Some p -> `Degraded p | None -> `Absent
        end
      end
      else
        match Disk.read_checked t.disk vbn with
        | `Ok p -> `Ok p
        | `Absent -> `Absent
        | `Media_error ->
            (* Reconstruction needs every other drive of the stripe — in
               degraded mode the failed drive's copy is gone too. *)
            let failed_peer_needed =
              match failure with
              | Some f ->
                  f.Fault.fail_drive <> loc.Geometry.drive
                  && loc.Geometry.dbn >= f.Fault.rebuilt_to
              | None -> false
            in
            if failed_peer_needed then begin
              Fault.note_unrecoverable fault;
              `Lost
            end
            else begin
              Fault.note_media_error fault;
              Fault.note_degraded_read fault;
              t.degraded_reads_served <- t.degraded_reads_served + 1;
              (* The reconstructed block is rewritten, repairing the sector. *)
              Fault.clear_media_error fault vbn;
              match Disk.read t.disk vbn with Some p -> `Degraded p | None -> `Absent
            end)

let submit t ~writes ~on_complete =
  if writes = [] then on_complete ()
  else begin
    Engine.consume t.cost.Cost.raid_io_dispatch;
    t.outstanding <- t.outstanding + 1;
    Sync.Channel.send t.queue
      (Io
         {
           writes;
           on_complete;
           submitted_at = Engine.now t.eng;
           h = Wafl_obs.Causal.capture t.obs ~kind:"raid";
         })
  end

let quiesce t =
  while t.outstanding > 0 do
    Sync.Waitq.wait t.done_q
  done

let shutdown t =
  (* One Stop per service fiber; the queue is FIFO so all pending I/Os
     complete before the fibers exit. *)
  for _ = 1 to t.queue_depth do
    Sync.Channel.send t.queue Stop
  done

let take_failed t =
  let failed = t.failed_writes in
  t.failed_writes <- [];
  List.rev failed

let degraded t = t.degraded
let ios_completed t = t.ios
let blocks_written t = t.blocks
let full_stripes t = t.full
let partial_stripes t = t.partial
let device_busy t = t.busy
let transient_retries t = t.retries
let degraded_reads t = t.degraded_reads_served
let rebuild_blocks t = t.rebuilt
