open Wafl_sim

(* A batch is one write I/O's entries in submission order, 24 bytes each
   in the slab [slots]: the vbn, the disk codec's key and its word.  A
   compact image is that key (>= 0) and word, exactly the disk slot it
   becomes; a boxed one has key [boxed_entry] and its payload in
   [boxed], at the index its word holds.  [slots] and [boxed] grow on
   demand and are kept when the group recycles the batch, but [boxed] is
   refilled with the codec's vacant image (or dropped, without one), so
   a recycled batch keeps no payload reachable. *)
type 'b batch = {
  disk : 'b Disk.t;
  mutable n : int;
  mutable slots : Wafl_util.Slab.t;
  mutable boxed : 'b array;
  mutable n_boxed : int;
}

type 'b request =
  | Io of {
      batch : 'b batch;
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
  mutable stream_of : int -> 'b option -> int; (* codec key, boxed payload -> stream *)
  obs : Wafl_obs.Trace.t;
  obs_on : bool; (* Trace.enabled obs, hoisted off the hot path *)
  causal_on : bool; (* Causal.enabled obs, hoisted likewise *)
  m_service : Metrics.histo;
  m_wait : Metrics.histo;
  m_ios : Metrics.counter;
  m_blocks : Metrics.counter;
  data_width : int;
  mutable stripe_counts : int array; (* all zero between I/Os; see [stripe_mix] *)
  mutable spare_batches : 'b batch list; (* recycled, empty *)
  queue_depth : int;
  queue : 'b request Sync.Channel.t;
  done_q : Sync.Waitq.t;
  mutable outstanding : int;
  mutable full : int;
  mutable partial : int;
  busy : Engine.fbox; (* device busy time, µs *)
  (* fault surface *)
  mutable degraded : bool;
  mutable rebuild_spawned : bool;
  mutable failed_writes : (Geometry.vbn * 'b) list; (* newest first *)
  mutable rebuilt : int;
}

(* --- batches ------------------------------------------------------------ *)

module Slab = Wafl_util.Slab

let entry_bytes = 24
let boxed_entry = -1
let batch_length (b : _ batch) = b.n
let[@inline] entry_vbn b i = Int64.to_int (Slab.unsafe_get64 b.slots (entry_bytes * i))
let[@inline] entry_key b i = Int64.to_int (Slab.unsafe_get64 b.slots ((entry_bytes * i) + 8))
let[@inline] entry_word b i = Slab.unsafe_get64 b.slots ((entry_bytes * i) + 16)
let entry_boxed b i = b.boxed.(Int64.to_int (entry_word b i))

(* The payload of entry [i], for the failure path: the only place a
   compact entry is unpacked. *)
let entry_payload (b : _ batch) i =
  let key = entry_key b i in
  if key >= 0 then (Disk.codec b.disk).Disk.unpack key (entry_word b i) else entry_boxed b i

let grow_slots (b : _ batch) =
  let bigger = Slab.create (max (64 * entry_bytes) (2 * Slab.length b.slots)) in
  Slab.blit b.slots 0 bigger 0 (entry_bytes * b.n);
  b.slots <- bigger

let[@inline] add_entry (b : _ batch) vbn key word =
  if entry_bytes * (b.n + 1) > Slab.length b.slots then grow_slots b;
  let o = entry_bytes * b.n in
  Slab.unsafe_set64 b.slots o (Int64.of_int vbn);
  Slab.unsafe_set64 b.slots (o + 8) (Int64.of_int key);
  Slab.unsafe_set64 b.slots (o + 16) word;
  b.n <- b.n + 1

let[@inline] add_compact b vbn ~key ~word =
  if key < 0 then invalid_arg "Raid.add_compact: negative key";
  add_entry b vbn key word

let add_boxed (b : _ batch) vbn payload =
  if b.n_boxed = Array.length b.boxed then begin
    let fill = match (Disk.codec b.disk).Disk.vacant with Some v -> v | None -> payload in
    let bigger = Array.make (max 16 (2 * b.n_boxed)) fill in
    Array.blit b.boxed 0 bigger 0 b.n_boxed;
    b.boxed <- bigger
  end;
  b.boxed.(b.n_boxed) <- payload;
  add_entry b vbn boxed_entry (Int64.of_int b.n_boxed);
  b.n_boxed <- b.n_boxed + 1

let add (b : _ batch) vbn payload =
  let codec = Disk.codec b.disk in
  let key = codec.Disk.key payload in
  if key >= 0 then add_entry b vbn key (codec.Disk.word payload) else add_boxed b vbn payload

(* The batch pool is shared by every submitter and the service fibers,
   behind the I/O dispatch lock. *)
let pool_probe t = if Engine.sanitizing t.eng then Engine.probe_atomic t.eng ~shared:"raid.pool"

let batch t =
  pool_probe t;
  match t.spare_batches with
  | b :: rest ->
      t.spare_batches <- rest;
      b
  | [] -> { disk = t.disk; n = 0; slots = Slab.empty; boxed = [||]; n_boxed = 0 }

let recycle t (b : _ batch) =
  (match (Disk.codec t.disk).Disk.vacant with
  | Some v -> Array.fill b.boxed 0 b.n_boxed v
  | None -> b.boxed <- [||]);
  b.n <- 0;
  b.n_boxed <- 0;
  pool_probe t;
  t.spare_batches <- b :: t.spare_batches

(* Count full vs partial stripes in one I/O: a stripe (distinct dbn) is
   full when every data drive of the group contributes a block.  Blocks
   are tallied per dbn in [stripe_counts] over the I/O's dbn span (one
   Allocation Area or so for a tetris I/O), and the closing scan zeroes
   the tallies again. *)
let[@inline never] stripe_mix t (b : _ batch) =
  let geom = Disk.geometry t.disk in
  let lo = ref max_int and hi = ref (-1) in
  for i = 0 to b.n - 1 do
    let vbn = entry_vbn b i in
    if Geometry.rg_of geom vbn <> t.rg then invalid_arg "Raid.submit: vbn not in this group";
    let d = Geometry.dbn_of geom vbn in
    if d < !lo then lo := d;
    if d > !hi then hi := d
  done;
  let span = !hi - !lo + 1 in
  if span > Array.length t.stripe_counts then t.stripe_counts <- Array.make span 0;
  let counts = t.stripe_counts in
  for i = 0 to b.n - 1 do
    let d = Geometry.dbn_of geom (entry_vbn b i) - !lo in
    counts.(d) <- counts.(d) + 1
  done;
  let full = ref 0 and partial = ref 0 in
  for i = 0 to span - 1 do
    let n = counts.(i) in
    if n > 0 then begin
      if n >= t.data_width then incr full else incr partial;
      counts.(i) <- 0
    end
  done;
  (!full, !partial)

(* Make the durable entries of a batch durable, in submission order: one
   [Fault.write_fails] test per entry, a failed entry unpacked onto
   [failed_writes], every other one stored in its slot format and, with
   a flash model, classified and programmed.  [give_up] (transient
   retries exhausted) fails every entry untested.

   This and [stripe_mix] stay out of line: the service fiber's [loop] is
   the bottom frame of its stack, and a poll inlined into it records no
   source location, so a host-time sample taken there (the [bench/perf]
   sampler, DESIGN.md §4.9) could not be charged to this library. *)
let[@inline never] write_batch t (b : _ batch) ~give_up =
  let fault = Disk.fault t.disk in
  let geom = Disk.geometry t.disk in
  let pages = ref [] in
  for i = 0 to b.n - 1 do
    let vbn = entry_vbn b i in
    if give_up || match fault with Some f -> Fault.write_fails f vbn | None -> false then
      t.failed_writes <- (vbn, entry_payload b i) :: t.failed_writes
    else begin
      let key = entry_key b i in
      if key >= 0 then Disk.write_compact t.disk vbn ~key ~word:(entry_word b i)
      else Disk.write t.disk vbn (entry_boxed b i);
      (* With a flash model attached, the durable writes also program
         NAND pages. *)
      match t.flash with
      | None -> ()
      | Some _ ->
          let boxed = if key >= 0 then None else Some (entry_boxed b i) in
          pages := (Geometry.rg_offset geom vbn, t.stream_of key boxed) :: !pages
    end
  done;
  (* Programming charges program time and any GC-induced stall before
     on_complete, so media push-back shows up in CP write latency. *)
  match t.flash with None -> () | Some ftl -> Wafl_flash.Ftl.host_write ftl (List.rev !pages)

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
    t.busy.v <- t.busy.v +. t.cost.Cost.rebuild_block;
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
    | Io { batch; on_complete; submitted_at; h } ->
        (* The service fiber picks up the request: the submitter's causal
           context becomes this fiber's, so the I/O span (and the queue
           wait it reveals) attribute to the submitting CP. *)
        Wafl_obs.Causal.restore t.obs ~kind:"raid" h;
        let wait = Engine.now t.eng -. submitted_at in
        Metrics.observe t.m_wait wait;
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
                  Engine.sleep backoff;
                  t.busy.v <- t.busy.v +. backoff;
                  attempt (n + 1) (backoff *. 2.0)
                end
              in
              attempt 0 t.cost.Cost.transient_retry_backoff
        in
        let full, partial = stripe_mix t batch in
        let nblocks = batch.n in
        let service =
          t.cost.Cost.device_base_latency
          +. (float_of_int nblocks *. t.cost.Cost.device_write_per_block)
          +. (float_of_int partial *. t.cost.Cost.parity_read_penalty)
        in
        let t0 = Engine.now t.eng in
        Engine.sleep service;
        Metrics.observe t.m_service service;
        Metrics.incr t.m_ios;
        Metrics.add t.m_blocks nblocks;
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
        write_batch t batch ~give_up:(outcome = `Give_up);
        recycle t batch;
        t.full <- t.full + full;
        t.partial <- t.partial + partial;
        t.busy.v <- t.busy.v +. service;
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
  let m = Engine.metrics eng in
  let t =
    {
      eng;
      cost;
      disk;
      rg;
      flash;
      stream_of = (fun _ _ -> 0);
      obs;
      obs_on = Wafl_obs.Trace.enabled obs;
      causal_on = Wafl_obs.Causal.enabled obs;
      m_service = Metrics.histogram m "raid.io_service_us";
      m_wait = Metrics.histogram m "raid.io_wait_us";
      m_ios = Metrics.counter m "raid.ios";
      m_blocks = Metrics.counter m "raid.blocks";
      data_width = Geometry.data_drives (Disk.geometry disk) ~rg;
      stripe_counts = [||];
      spare_batches = [];
      queue_depth;
      queue = Sync.Channel.create eng;
      done_q = Sync.Waitq.create eng;
      outstanding = 0;
      full = 0;
      partial = 0;
      busy = { Engine.v = 0.0 };
      degraded = false;
      rebuild_spawned = false;
      failed_writes = [];
      rebuilt = 0;
    }
  in
  let pull name f = Metrics.pull_counter m name (fun () -> float_of_int (f ())) in
  pull "raid.full_stripes" (fun () -> t.full);
  pull "raid.partial_stripes" (fun () -> t.partial);
  pull "rebuild.blocks" (fun () -> t.rebuilt);
  Metrics.pull_gauge m "rebuild.active" (fun () -> if t.degraded then 1.0 else 0.0);
  for _ = 1 to queue_depth do
    (* Called, not tail-called, so [loop]'s frame is not the fiber's
       bottom frame (DESIGN.md §4.9, Profiling). *)
    ignore (Engine.spawn eng ~label:"io" (fun () -> service_fiber t (); ()))
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

(* The fault-aware half of every read: [`Ok] when the slot can be served
   as stored, [`Degraded] when the block is reconstructed from the parity
   model (the reconstruction rewrites a bad sector, so the slot then
   serves it too), [`Lost] on a double failure.  Counters and repairs
   happen here; presence is the caller's to check. *)
let read_path t vbn =
  let geom = Disk.geometry t.disk in
  if Geometry.rg_of geom vbn <> t.rg then invalid_arg "Raid.read: vbn not in this group";
  check_failure t;
  match Disk.fault t.disk with
  | None -> `Ok
  | Some fault ->
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
          `Degraded
        end
      end
      else if not (Fault.media_error fault vbn) then `Ok
      else begin
        (* Reconstruction needs every other drive of the stripe — in
           degraded mode the failed drive's copy is gone too. *)
        let failed_peer_needed =
          match failure with
          | Some f ->
              f.Fault.fail_drive <> loc.Geometry.drive && loc.Geometry.dbn >= f.Fault.rebuilt_to
          | None -> false
        in
        if failed_peer_needed then begin
          Fault.note_unrecoverable fault;
          `Lost
        end
        else begin
          Fault.note_media_error fault;
          Fault.note_degraded_read fault;
          (* The reconstructed block is rewritten, repairing the sector. *)
          Fault.clear_media_error fault vbn;
          `Degraded
        end
      end

let read t vbn =
  match read_path t vbn with
  | `Lost -> `Lost
  | `Ok -> ( match Disk.read t.disk vbn with Some p -> `Ok p | None -> `Absent)
  | `Degraded -> ( match Disk.read t.disk vbn with Some p -> `Degraded p | None -> `Absent)

let read_word t vbn ~key =
  match read_path t vbn with
  | `Lost -> `Lost
  | `Ok | `Degraded -> (
      if key >= 0 && Disk.compact_key t.disk vbn = key then `Word (Disk.compact_word t.disk vbn)
      else match Disk.read t.disk vbn with Some p -> `Other p | None -> `Absent)

let submit_batch t (b : _ batch) ~on_complete =
  if b.n = 0 then begin
    recycle t b;
    on_complete ()
  end
  else begin
    Engine.consume t.cost.Cost.raid_io_dispatch;
    t.outstanding <- t.outstanding + 1;
    Sync.Channel.send t.queue
      (Io
         {
           batch = b;
           on_complete;
           submitted_at = Engine.now t.eng;
           h = Wafl_obs.Causal.capture t.obs ~kind:"raid";
         })
  end

let submit t ~writes ~on_complete =
  let b = batch t in
  List.iter (fun (vbn, payload) -> add b vbn payload) writes;
  submit_batch t b ~on_complete

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
let device_busy t = t.busy.v
let rebuild_blocks t = t.rebuilt
