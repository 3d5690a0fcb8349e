open Wafl_sim

module Nodes = Hashtbl.Make (Affinity)

(* One node per affinity instance.  Besides the conflict-tracking state
   (active / desc_active, as before), each node owns the FIFO of its own
   pending messages and caches everything derivable from its affinity
   (kind name, span name, metric handles) so the per-message hot path
   computes no strings and performs no hash lookups. *)
type node = {
  aff : Affinity.t;
  parent : node option;
  mutable active : bool;
  mutable desc_active : int;
  q : msg Wafl_util.Fifo.t; (* this node's pending messages, oldest first *)
  kind : string; (* Affinity.kind_name aff *)
  span_name : string; (* "msg " ^ kind *)
  post_kind : string; (* "post " ^ kind: the causal-edge kind for this node *)
  mutable wait_h : Metrics.histo option; (* registered on first use *)
  mutable service_h : Metrics.histo option;
}

and msg = {
  label : string;
  body : unit -> unit;
  posted_at : float;
  seq : int;
  h : Wafl_obs.Causal.handoff; (* poster's causal context (no_handoff unless causal) *)
}

(* Fills every empty message slot: a node's cleared queue slots and an
   idle worker's [msg].  It is never queued, so never granted. *)
let no_msg =
  { label = ""; body = ignore; posted_at = 0.0; seq = -1; h = Wafl_obs.Causal.no_handoff }

(* A pooled worker fiber.  Workers are daemons: spawned on demand up to
   (roughly) the worker count, they execute one granted message at a
   time and park between grants instead of being created and torn down
   per message — the real Waffinity worker-thread model.  A grant fills
   [node] and [msg] in place, so it allocates nothing. *)
type worker = {
  mutable node : node; (* the node of the granted message *)
  mutable msg : msg; (* the granted message to run next; [no_msg] when idle *)
  mutable fiber : Engine.fiber option; (* set right after spawn *)
}

type t = {
  eng : Engine.t;
  cost : Cost.t;
  workers : int;
  nodes : node Nodes.t;
  (* Grantable-head index: a binary min-heap of nodes keyed by the
     sequence number of each node's head (oldest) pending message.
     Invariant: a node appears in the heap or the round's stash exactly
     when its queue is non-empty, keyed by its current head's seq. *)
  mutable hp_seq : int array;
  mutable hp_node : node array;
  mutable hp_len : int;
  filler : node; (* fills empty heap and stash slots; never granted *)
  (* Nodes popped but not grantable during the current dispatch round;
     re-pushed when the round ends.  Within a round grantability only
     shrinks (grants add blockers, releases re-enter dispatch), so a
     skipped node stays skipped — exactly the old rescan semantics. *)
  mutable st_seq : int array;
  mutable st_node : node array;
  mutable st_len : int;
  mutable next_seq : int;
  mutable pending_count : int;
  mutable executing : int;
  idle : Sync.Waitq.t; (* drain waiters *)
  (* Parked workers, a stack: [idle_workers.(n_idle - 1)] parked last.
     Slots at and above [n_idle] are stale (workers live as long as the
     scheduler, so a stale slot keeps nothing alive). *)
  mutable idle_workers : worker array;
  mutable n_idle : int;
  isolation : Isolation.t option;
  obs : Wafl_obs.Trace.t;
  obs_on : bool; (* Trace.enabled obs, hoisted off the hot path *)
  causal_on : bool; (* Causal.enabled obs, hoisted likewise *)
  m_msgs : Metrics.counter;
  g_queued : Metrics.gauge;
  g_executing : Metrics.gauge;
  mutable chaos_misattribute : Affinity.t option;
      (* test-only: the next posted message is mislabelled with this
         affinity, as if a grant guard were dropped *)
}

let new_node ~aff ~parent ~kind =
  {
    aff;
    parent;
    active = false;
    desc_active = 0;
    q = Wafl_util.Fifo.create ~dummy:no_msg;
    kind;
    span_name = "msg " ^ kind;
    post_kind = "post " ^ kind;
    wait_h = None;
    service_h = None;
  }

let create ?workers ?isolation ?(obs = Wafl_obs.Trace.disabled) eng ~cost () =
  let workers = match workers with Some w -> w | None -> Engine.cores eng in
  if workers <= 0 then invalid_arg "Scheduler.create: workers must be positive";
  let m = Engine.metrics eng in
  let filler = new_node ~aff:Affinity.Serial ~parent:None ~kind:"" in
  {
    eng;
    cost;
    workers;
    nodes = Nodes.create 64;
    hp_seq = Array.make 64 0;
    hp_node = Array.make 64 filler;
    hp_len = 0;
    filler;
    st_seq = Array.make 64 0;
    st_node = Array.make 64 filler;
    st_len = 0;
    next_seq = 0;
    pending_count = 0;
    executing = 0;
    idle = Sync.Waitq.create eng;
    idle_workers = Array.make 8 { node = filler; msg = no_msg; fiber = None };
    n_idle = 0;
    isolation;
    obs;
    obs_on = Wafl_obs.Trace.enabled obs;
    causal_on = Wafl_obs.Causal.enabled obs;
    m_msgs = Metrics.counter m "sched.messages";
    g_queued = Metrics.gauge m "sched.queued";
    g_executing = Metrics.gauge m "sched.executing";
    chaos_misattribute = None;
  }

let isolation t = t.isolation
let set_chaos_misattribute t aff = t.chaos_misattribute <- aff

let rec node t aff =
  match Nodes.find t.nodes aff with
  | n -> n
  | exception Not_found ->
      let parent = Option.map (node t) (Affinity.parent aff) in
      let n = new_node ~aff ~parent ~kind:(Affinity.kind_name aff) in
      Nodes.add t.nodes aff n;
      n

let grantable n =
  if n.active || n.desc_active > 0 then false
  else
    let rec up = function
      | None -> true
      | Some p -> (not p.active) && up p.parent
    in
    up n.parent

let activate n =
  n.active <- true;
  let rec up = function
    | None -> ()
    | Some p ->
        p.desc_active <- p.desc_active + 1;
        up p.parent
  in
  up n.parent

let release n =
  n.active <- false;
  let rec up = function
    | None -> ()
    | Some p ->
        p.desc_active <- p.desc_active - 1;
        up p.parent
  in
  up n.parent

(* Per-affinity-kind histograms, registered on first use and cached on
   the node (the metrics registry dedups by name, so nodes of the same
   kind share the underlying histogram). *)
let wait_histo t n =
  match n.wait_h with
  | Some h -> h
  | None ->
      let h =
        Metrics.histogram (Engine.metrics t.eng) ("sched.wait_us." ^ n.kind)
      in
      n.wait_h <- Some h;
      h

let service_histo t n =
  match n.service_h with
  | Some h -> h
  | None ->
      let h =
        Metrics.histogram (Engine.metrics t.eng) ("sched.service_us." ^ n.kind)
      in
      n.service_h <- Some h;
      h

(* --- the grantable-head heap (min-heap on head-message seq) --- *)

let hp_push t seq n =
  let cap = Array.length t.hp_seq in
  if t.hp_len = cap then begin
    let cap' = 2 * cap in
    let sq = Array.make cap' 0 and nd = Array.make cap' t.filler in
    Array.blit t.hp_seq 0 sq 0 t.hp_len;
    Array.blit t.hp_node 0 nd 0 t.hp_len;
    t.hp_seq <- sq;
    t.hp_node <- nd
  end;
  let i = ref t.hp_len in
  t.hp_len <- t.hp_len + 1;
  let continue_up = ref true in
  while !continue_up && !i > 0 do
    let parent = (!i - 1) / 2 in
    if t.hp_seq.(parent) < seq then continue_up := false
    else begin
      t.hp_seq.(!i) <- t.hp_seq.(parent);
      t.hp_node.(!i) <- t.hp_node.(parent);
      i := parent
    end
  done;
  t.hp_seq.(!i) <- seq;
  t.hp_node.(!i) <- n

(* Remove the minimum (slot 0); the caller has already read it. *)
let hp_remove_min t =
  t.hp_len <- t.hp_len - 1;
  let n = t.hp_len in
  if n = 0 then t.hp_node.(0) <- t.filler
  else begin
    let seq = t.hp_seq.(n) and node = t.hp_node.(n) in
    t.hp_node.(n) <- t.filler;
    let i = ref 0 in
    let continue_down = ref true in
    while !continue_down do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      if l >= n then continue_down := false
      else begin
        let s = ref (if t.hp_seq.(l) < seq then l else -1) in
        if r < n && t.hp_seq.(r) < (if !s >= 0 then t.hp_seq.(l) else seq) then s := r;
        if !s < 0 then continue_down := false
        else begin
          t.hp_seq.(!i) <- t.hp_seq.(!s);
          t.hp_node.(!i) <- t.hp_node.(!s);
          i := !s
        end
      end
    done;
    t.hp_seq.(!i) <- seq;
    t.hp_node.(!i) <- node
  end

let stash t seq n =
  let cap = Array.length t.st_seq in
  if t.st_len = cap then begin
    let cap' = 2 * cap in
    let sq = Array.make cap' 0 and nd = Array.make cap' t.filler in
    Array.blit t.st_seq 0 sq 0 t.st_len;
    Array.blit t.st_node 0 nd 0 t.st_len;
    t.st_seq <- sq;
    t.st_node <- nd
  end;
  t.st_seq.(t.st_len) <- seq;
  t.st_node.(t.st_len) <- n;
  t.st_len <- t.st_len + 1

(* --- dispatch: grant oldest pending messages whose affinity is free --- *)

(* The body a message runs under: cost, isolation registration, optional
   span — byte-for-byte the work the old per-message fiber did. *)
let exec t n m =
  let t0 = Engine.now t.eng in
  (* The grant: the queued message's causal context becomes this worker's
     context (and the 'f' half of the post edge lands here), so spans the
     body opens attribute to the posting request, not to whatever the
     pooled worker ran last. *)
  Wafl_obs.Causal.restore t.obs ~kind:n.post_kind m.h;
  Engine.consume t.cost.Cost.msg_dispatch;
  (match t.isolation with
  | Some iso ->
      Isolation.enter iso ~fid:(Engine.current_fid t.eng) ~affinity:n.aff ~label:m.label
  | None -> ());
  let run_body () =
    if t.obs_on then
      Wafl_obs.Trace.with_span t.obs ~cat:"sched" ~name:n.span_name
        ~args:[ ("label", m.label) ]
        ~num_args:(if t.causal_on then [ ("wait_us", t0 -. m.posted_at) ] else [])
        m.body
    else m.body ()
  in
  (try run_body ()
   with exn ->
     (match t.isolation with
     | Some iso -> Isolation.exit iso ~fid:(Engine.current_fid t.eng)
     | None -> ());
     release n;
     raise exn);
  (match t.isolation with
  | Some iso -> Isolation.exit iso ~fid:(Engine.current_fid t.eng)
  | None -> ());
  release n;
  Metrics.observe (service_histo t n) (Engine.now t.eng -. t0);
  Metrics.incr t.m_msgs;
  t.executing <- t.executing - 1;
  Metrics.set t.g_executing (float_of_int t.executing)

(* A worker executes its granted message, re-enters dispatch (the old
   per-message fiber did the same on its way out), then parks in the
   idle pool until the next grant fills its slot. *)
let rec worker_loop t w =
  if w.msg != no_msg then begin
    let n = w.node and m = w.msg in
    w.msg <- no_msg;
    exec t n m;
    (* Workers are reused across unrelated messages: drop any span the
       body left open and deactivate its causal context, so message A's
       leftovers can never parent message B's spans. *)
    if t.obs_on then Wafl_obs.Causal.fiber_reset t.obs;
    if t.executing = 0 && t.pending_count = 0 then ignore (Sync.Waitq.wake_all t.idle);
    dispatch t
  end;
  if t.n_idle = Array.length t.idle_workers then begin
    let a = Array.make (2 * t.n_idle) w in
    Array.blit t.idle_workers 0 a 0 t.n_idle;
    t.idle_workers <- a
  end;
  t.idle_workers.(t.n_idle) <- w;
  t.n_idle <- t.n_idle + 1;
  Engine.park t.eng;
  worker_loop t w

and start t n m =
  activate n;
  t.executing <- t.executing + 1;
  let wait = Engine.now t.eng -. m.posted_at in
  Metrics.observe (wait_histo t n) wait;
  Metrics.set t.g_executing (float_of_int t.executing);
  (* The queue hand-off orders the poster before the message body even
     when the granting dispatch runs in an unrelated fiber. *)
  Engine.probe_atomic t.eng ~shared:"sched.queue";
  if t.n_idle > 0 then begin
    t.n_idle <- t.n_idle - 1;
    let w = t.idle_workers.(t.n_idle) in
    w.node <- n;
    w.msg <- m;
    let f = Option.get w.fiber in
    (* Charge the worker's CPU to the message's class, and let the
       dispatch observability hook see that class, exactly as the old
       fresh-fiber-per-message spawn did. *)
    Engine.relabel f m.label;
    Engine.wake t.eng f
  end
  else begin
    (* No idle worker: grow the pool.  [executing] <= workers bounds
       the busy workers, so the pool stays within one fiber of the
       worker count (the one transiently between finish and park). *)
    let w = { node = n; msg = m; fiber = None } in
    w.fiber <- Some (Engine.spawn t.eng ~label:m.label ~daemon:true (fun () -> worker_loop t w))
  end

and dispatch t =
  (* Pop grantable heads oldest-first; stash skipped (blocked) nodes and
     re-push them once the round ends.  Equivalent to the old "rescan
     the whole pending list after every grant" because a node blocked at
     its pop stays blocked for the rest of the round. *)
  while t.executing < t.workers && t.hp_len > 0 do
    let seq = t.hp_seq.(0) and n = t.hp_node.(0) in
    hp_remove_min t;
    if grantable n then begin
      let m = Wafl_util.Fifo.pop n.q in
      t.pending_count <- t.pending_count - 1;
      Metrics.set t.g_queued (float_of_int t.pending_count);
      if not (Wafl_util.Fifo.is_empty n.q) then hp_push t (Wafl_util.Fifo.peek n.q).seq n;
      start t n m
    end
    else stash t seq n
  done;
  for i = 0 to t.st_len - 1 do
    hp_push t t.st_seq.(i) t.st_node.(i);
    t.st_node.(i) <- t.filler
  done;
  t.st_len <- 0

let post t ~affinity ~label body =
  let affinity =
    match t.chaos_misattribute with
    | Some chaos ->
        t.chaos_misattribute <- None;
        chaos
    | None -> affinity
  in
  let n = node t affinity in
  let m =
    {
      label;
      body;
      posted_at = Engine.now t.eng;
      seq = t.next_seq;
      h = Wafl_obs.Causal.capture t.obs ~kind:n.post_kind;
    }
  in
  t.next_seq <- t.next_seq + 1;
  let was_empty = Wafl_util.Fifo.is_empty n.q in
  Wafl_util.Fifo.push n.q m;
  if was_empty then hp_push t m.seq n;
  t.pending_count <- t.pending_count + 1;
  Metrics.set t.g_queued (float_of_int t.pending_count);
  Engine.probe_atomic t.eng ~shared:"sched.queue";
  dispatch t

let post_wait t ~affinity ~label body =
  let result = ref None in
  let me = Engine.self t.eng in
  post t ~affinity ~label (fun () ->
      result := Some (body ());
      Engine.wake t.eng me);
  (* Scheduling is cooperative: the message fiber cannot run until this
     fiber parks, so the wake always finds us parked. *)
  Engine.park t.eng;
  match !result with Some v -> v | None -> assert false

let drain t =
  while t.executing > 0 || t.pending_count > 0 do
    Sync.Waitq.wait t.idle
  done
