open Wafl_sim
open Wafl_fs

type segment = {
  vol : Volume.t;
  file : File.t;
  fbns : int array;
  first : int;
  len : int;
  whole_inode : bool;
}

type work = segment list

type msg =
  | Work of {
      segments : work;
      posted_at : float;
      h : Wafl_obs.Causal.handoff; (* submitter's causal context *)
    }
  | Flushreq of (unit -> unit)

type cleaner = {
  idx : int;
  chan : msg Sync.Channel.t;
  mutable queued : int;
  mutable phys : Bucket.t option;
  mutable virt : (int * Bucket.t) option; (* at most one volume's bucket *)
  phys_stage : Stage.t;
  virt_stages : Stage.t Wafl_util.Int_table.t; (* by volume id *)
  token : Counters.token;
  (* Cached token cells for the two per-buffer counters: skips the
     name-hash lookup on every cleaned buffer. *)
  c_freed : int ref;
  c_cleaned : int ref;
}

type t = {
  eng : Engine.t;
  cost : Cost.t;
  infra : Infra.t;
  obs : Wafl_obs.Trace.t;
  obs_on : bool; (* Trace.enabled obs, hoisted off the hot path *)
  causal_on : bool; (* Causal.enabled obs, hoisted likewise *)
  m_work : Metrics.counter;
  g_active : Metrics.gauge;
  g_pending : Metrics.gauge;
  cleaners : cleaner array;
  mutable n_active : int;
  mutable pending_msgs : int;
  idle : Sync.Waitq.t;
  mutable n_buffers : int;
  mutable n_inodes : int;
  mutable n_messages : int;
  mutable n_get_waits : int;
  busy : Engine.fbox; (* cumulative cleaner CPU, µs *)
}

(* All cleaner CPU goes through here so the dynamic tuner can read a
   cumulative busy figure that survives engine accounting resets. *)
let charge t d =
  t.busy.v <- t.busy.v +. d;
  Engine.consume d

(* --- bucket acquisition ------------------------------------------------- *)

let rec take_virt ?(spin = 0) t c vol =
  if spin > 50_000 then
    failwith
      (Printf.sprintf "take_virt: livelock, vol %d cache=%d"
         (Volume.id vol)
         (Infra.virt_cache_length t.infra vol));
  match c.virt with
  | Some (vid, b) when vid = Volume.id vol -> (
      match Api.use_virt b with
      | Some v -> v
      | None ->
          Api.put t.infra b;
          c.virt <- None;
          take_virt ~spin:(spin + 1) t c vol)
  | Some (_, b) ->
      (* Switching volumes: return the old bucket (partially used buckets
         are legal; unused VBNs simply stay free). *)
      Api.put t.infra b;
      c.virt <- None;
      take_virt ~spin:(spin + 1) t c vol
  | None ->
      if Infra.virt_cache_length t.infra vol = 0 then t.n_get_waits <- t.n_get_waits + 1;
      charge t t.cost.Cost.lock_acquire;
      let b = Infra.get_virt t.infra vol in
      c.virt <- Some (Volume.id vol, b);
      take_virt ~spin:(spin + 1) t c vol

(* The cleaner's physical bucket, with a VBN left: an exhausted one is
   PUT and a fresh one taken. *)
let rec phys_bucket ?(spin = 0) t c =
  if spin > 50_000 then
    failwith
      (Printf.sprintf "take_phys: livelock, cache=%d" (Infra.phys_cache_length t.infra));
  match c.phys with
  | Some b when not (Bucket.is_exhausted b) -> b
  | Some b ->
      Api.put t.infra b;
      c.phys <- None;
      phys_bucket ~spin:(spin + 1) t c
  | None ->
      if Infra.phys_cache_length t.infra = 0 then t.n_get_waits <- t.n_get_waits + 1;
      charge t t.cost.Cost.lock_acquire;
      let b = Infra.get_phys t.infra in
      c.phys <- Some b;
      phys_bucket ~spin:(spin + 1) t c

(* --- free staging ------------------------------------------------------- *)

(* Stages are private to their cleaner thread — the probe is pure teeth:
   any touch from another fiber is a bug the detector must report. *)
let stage_probe t c =
  if Engine.sanitizing t.eng then
    Engine.probe t.eng ~shared:(Printf.sprintf "cleaner/%d.stage" c.idx) Race.Write

let token_probe t c =
  if Engine.sanitizing t.eng then
    Engine.probe_atomic t.eng ~shared:(Printf.sprintf "cleaner/%d.token" c.idx)

let stage_phys t c pvbn =
  charge t t.cost.Cost.stage_free;
  stage_probe t c;
  match Stage.add c.phys_stage pvbn with
  | `Ok -> ()
  | `Full ->
      Infra.commit_frees ~owner:c.idx t.infra ~target:Stage.Phys
        ~vbns:(Stage.drain c.phys_stage) ~token:c.token

let virt_stage c vol =
  let vid = Volume.id vol in
  match Wafl_util.Int_table.find_opt c.virt_stages vid with
  | Some s -> s
  | None ->
      let s =
        Stage.create ~target:(Stage.Virt { vol = vid }) ~capacity:Infra.stage_capacity
      in
      Wafl_util.Int_table.replace c.virt_stages vid s;
      s

let stage_virt t c vol vvbn =
  charge t t.cost.Cost.stage_free;
  stage_probe t c;
  let s = virt_stage c vol in
  match Stage.add s vvbn with
  | `Ok -> ()
  | `Full ->
      Infra.commit_frees ~owner:c.idx t.infra
        ~target:(Stage.Virt { vol = Volume.id vol })
        ~vbns:(Stage.drain s) ~token:c.token

(* --- the cleaning loop -------------------------------------------------- *)

let clean_segment t c seg =
  if seg.whole_inode then charge t t.cost.Cost.clean_inode_overhead;
  let vol = seg.vol and file = seg.file in
  for i = seg.first to seg.first + seg.len - 1 do
    let fbn = seg.fbns.(i) in
    let vvbn = take_virt t c vol in
    (* The block goes to the tetris as the disk's two words: its key
       and its content. *)
    let content = File.cp_content file fbn in
    let pvbn =
      Api.use_data (phys_bucket t c) ~vol:(Volume.id vol) ~file:(File.id file) ~fbn ~content
    in
    let old_vvbn = File.set_vvbn file ~fbn ~vvbn in
    let prev = Volume.map_vvbn vol ~vvbn ~pvbn in
    if prev <> -1 then
      failwith
        (Printf.sprintf "cleaner: fresh vvbn %d of volume %d was already mapped to %d"
           vvbn (Volume.id vol) prev);
    if old_vvbn >= 0 then begin
      (* The overwrite frees the previous generation of this block, in
         both address spaces (§II-C). *)
      let old_pvbn = Volume.map_vvbn vol ~vvbn:old_vvbn ~pvbn:(-1) in
      if old_pvbn < 0 then
        failwith
          (Printf.sprintf "cleaner: stale vvbn %d of volume %d had no container entry"
             old_vvbn (Volume.id vol));
      stage_virt t c vol old_vvbn;
      stage_phys t c old_pvbn;
      token_probe t c;
      incr c.c_freed
    end;
    charge t t.cost.Cost.clean_buffer;
    token_probe t c;
    incr c.c_cleaned;
    t.n_buffers <- t.n_buffers + 1;
    if (i - seg.first + 1) mod 64 = 0 then Engine.yield ()
  done;
  if seg.whole_inode then t.n_inodes <- t.n_inodes + 1

let flush_cleaner t c =
  (match c.phys with
  | Some b ->
      Api.put t.infra b;
      c.phys <- None
  | None -> ());
  (match c.virt with
  | Some (_, b) ->
      Api.put t.infra b;
      c.virt <- None
  | None -> ());
  stage_probe t c;
  if not (Stage.is_empty c.phys_stage) then
    Infra.commit_frees ~owner:c.idx t.infra ~target:Stage.Phys
      ~vbns:(Stage.drain c.phys_stage) ~token:c.token;
  Wafl_util.Int_table.bindings c.virt_stages
  |> List.iter (fun (vid, s) ->
         if not (Stage.is_empty s) then
           Infra.commit_frees ~owner:c.idx t.infra ~target:(Stage.Virt { vol = vid })
             ~vbns:(Stage.drain s) ~token:c.token);
  Infra.flush_token ~owner:c.idx t.infra c.token

(* "Once the cleaner thread has either consumed all free VBNs in a bucket
   or run out of dirty buffers to clean, it returns the bucket" (§IV-A).
   Returning buckets when going idle is also what keeps the refill cycle
   live: a retained bucket would block its RAID group's collective
   reinsertion while this thread has nothing to clean. *)
let release_buckets t c =
  (match c.phys with
  | Some b ->
      Api.put t.infra b;
      c.phys <- None
  | None -> ());
  match c.virt with
  | Some (_, b) ->
      Api.put t.infra b;
      c.virt <- None
  | None -> ()

let cleaner_loop t c () =
  let rec loop () =
    match Sync.Channel.recv c.chan with
    | Work { segments; posted_at; h } ->
        let t0 = Engine.now t.eng in
        (* The cleaner picks up the work item: the submitter's causal
           context becomes this cleaner's context, so cleaning spans
           attribute to the CP (or message) that produced the work. *)
        Wafl_obs.Causal.restore t.obs ~kind:"clean" h;
        (* Per-message cost: dispatch plus waking the thread — the
           overhead batched inode cleaning amortizes (SV-C). *)
        charge t (t.cost.Cost.msg_dispatch +. t.cost.Cost.thread_wake);
        if t.obs_on then
          Wafl_obs.Trace.with_span t.obs ~cat:"cleaner" ~name:"clean work"
            ~args:[ ("segments", string_of_int (List.length segments)) ]
            ~num_args:(if t.causal_on then [ ("wait_us", t0 -. posted_at) ] else [])
            (fun () -> List.iter (clean_segment t c) segments)
        else List.iter (clean_segment t c) segments;
        (* Cleaner fibers are reused across unrelated work items: drop the
           leftover causal context so item A can never parent item B. *)
        if t.obs_on then Wafl_obs.Causal.fiber_reset t.obs;
        (* ["cleaner.work_msgs"] and ["cleaner.messages"] count the same
           messages, yet both stay: returning the last bucket can submit a
           tetris I/O, which charges CPU, so a sample or a window taken
           while [release_buckets] runs sees them differ by one; and every
           tracer samples every counter, so dropping either name would
           move the trace-export goldens (DESIGN.md §4.8). *)
        Metrics.incr t.m_work;
        if Sync.Channel.length c.chan = 0 then release_buckets t c;
        t.n_messages <- t.n_messages + 1;
        (* Queue-depth bookkeeping is shared with submitters (an atomic
           in a real kernel); the probe also publishes this message's
           cleaning history to wait_idle. *)
        Engine.probe_atomic t.eng ~shared:"cleaner_pool.state";
        c.queued <- c.queued - 1;
        t.pending_msgs <- t.pending_msgs - 1;
        Metrics.set t.g_pending (float_of_int t.pending_msgs);
        if t.pending_msgs = 0 then ignore (Sync.Waitq.wake_all t.idle);
        Engine.yield ();
        loop ()
    | Flushreq ack ->
        flush_cleaner t c;
        ack ();
        loop ()
  in
  loop ()

(* --- pool management ---------------------------------------------------- *)

let create ?(obs = Wafl_obs.Trace.disabled) infra ~max_threads ~initial_threads =
  if max_threads <= 0 then invalid_arg "Cleaner_pool.create: no threads";
  let initial = max 1 (min initial_threads max_threads) in
  let agg = Infra.aggregate infra in
  let eng = Aggregate.engine agg in
  let counters = Aggregate.counters agg in
  let m = Engine.metrics eng in
  let t =
    {
      eng;
      cost = Aggregate.cost agg;
      infra;
      obs;
      obs_on = Wafl_obs.Trace.enabled obs;
      causal_on = Wafl_obs.Causal.enabled obs;
      m_work = Metrics.counter m "cleaner.work_msgs";
      g_active = Metrics.gauge m "cleaner.active";
      g_pending = Metrics.gauge m "cleaner.pending_msgs";
      cleaners =
        Array.init max_threads (fun idx ->
            let token = Counters.token counters in
            {
              idx;
              chan = Sync.Channel.create eng;
              queued = 0;
              phys = None;
              virt = None;
              phys_stage = Stage.create ~target:Stage.Phys ~capacity:Infra.stage_capacity;
              virt_stages = Wafl_util.Int_table.create ();
              token;
              c_freed = Counters.token_cell token "cleaner_blocks_freed";
              c_cleaned = Counters.token_cell token "cleaner_buffers_cleaned";
            });
      n_active = initial;
      pending_msgs = 0;
      idle = Sync.Waitq.create eng;
      n_buffers = 0;
      n_inodes = 0;
      n_messages = 0;
      n_get_waits = 0;
      busy = { Engine.v = 0.0 };
    }
  in
  Metrics.set t.g_active (float_of_int initial);
  let pull name f = Metrics.pull_counter m name (fun () -> float_of_int (f ())) in
  pull "cleaner.buffers" (fun () -> t.n_buffers);
  pull "cleaner.messages" (fun () -> t.n_messages);
  pull "cleaner.get_waits" (fun () -> t.n_get_waits);
  Metrics.pull_counter m "cleaner.busy_us" (fun () -> t.busy.v);
  Array.iter
    (fun c -> ignore (Engine.spawn eng ~label:"cleaner" (cleaner_loop t c)))
    t.cleaners;
  t

let engine t = t.eng
let max_threads t = Array.length t.cleaners
let active t = t.n_active

let set_active t n =
  let n = max 1 (min n (max_threads t)) in
  if n > t.n_active then
    (* Waking dormant threads has a cost (§V-B). *)
    Engine.consume (float_of_int (n - t.n_active) *. t.cost.Cost.thread_wake);
  t.n_active <- n;
  Metrics.set t.g_active (float_of_int n)

let submit t work =
  Engine.probe_atomic t.eng ~shared:"cleaner_pool.state";
  let best = ref t.cleaners.(0) in
  for i = 1 to t.n_active - 1 do
    if t.cleaners.(i).queued < !best.queued then best := t.cleaners.(i)
  done;
  !best.queued <- !best.queued + 1;
  t.pending_msgs <- t.pending_msgs + 1;
  Metrics.set t.g_pending (float_of_int t.pending_msgs);
  Sync.Channel.send !best.chan
    (Work
       {
         segments = work;
         posted_at = Engine.now t.eng;
         h = Wafl_obs.Causal.capture t.obs ~kind:"clean";
       })

let wait_idle t =
  while t.pending_msgs > 0 do
    Sync.Waitq.wait t.idle
  done;
  (* Acquire every finished cleaner message's history before the caller
     inspects what the cleaning produced. *)
  Engine.probe_atomic t.eng ~shared:"cleaner_pool.state"

let flush_and_wait t =
  let remaining = ref (Array.length t.cleaners) in
  let me = Engine.self t.eng in
  Array.iter
    (fun c ->
      Sync.Channel.send c.chan
        (Flushreq
           (fun () ->
             (* Per-cleaner acks decrement a shared countdown. *)
             Engine.probe_atomic t.eng ~shared:"cleaner_pool.flush_remaining";
             decr remaining;
             if !remaining = 0 then Engine.wake t.eng me)))
    t.cleaners;
  Engine.probe_atomic t.eng ~shared:"cleaner_pool.flush_remaining";
  if !remaining > 0 then Engine.park t.eng

let inodes_cleaned t = t.n_inodes
let utilization_busy t = t.busy.v
