open Wafl_sim

module Nodes = Hashtbl.Make (Affinity)

(* One node per affinity instance, numbered densely in creation order:
   [id] is its slot in the scheduler's node table.  Besides the conflict
   state (active / desc_active), a node owns the FIFO of its own pending
   messages and the ids of the blocked nodes parked on it, and caches
   everything derivable from its affinity (kind name, span name, metric
   handles), so the per-message hot path computes no strings and
   performs no hash lookups. *)
type node = {
  id : int;
  aff : Affinity.t;
  parent : node option;
  mutable active : bool;
  mutable desc_active : int;
  mutable self_parked : bool; (* blocked by itself: active, or a descendant is *)
  mutable parked : int array; (* ids of the nodes parked on this active one *)
  mutable n_parked : int;
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
   per message — the real Waffinity worker-thread model.  [wid] is its
   slot in the scheduler's worker table.  A grant fills [node] and [msg]
   in place, so it allocates nothing. *)
type worker = {
  wid : int;
  mutable node : int; (* id of the granted message's node *)
  mutable msg : msg; (* the granted message to run next; [no_msg] when idle *)
  mutable fiber : Engine.fiber option; (* set right after spawn *)
}

(* Every node with pending messages is in exactly one place:
   - in the heap, keyed by the seq of its head (oldest) message;
   - parked on itself ([self_parked]), while it or one of its
     descendants is active;
   - or parked on its one active ancestor, in that ancestor's [parked].
   A parked node is blocked until [release] puts it back in the heap,
   so [dispatch] pops a blocked node once per blocker, not once per
   round.  A node back in the heap may be blocked again (by another
   ancestor, say); it is checked when popped.  The heap and every list
   here hold ints (seqs, node and worker ids), so a push, pop or sift
   writes no pointer. *)
type t = {
  eng : Engine.t;
  cost : Cost.t;
  workers : int;
  nodes : node Nodes.t; (* by affinity, for [post] *)
  mutable tbl : node array; (* by id; slots at and above [n_nodes] hold [filler] *)
  mutable n_nodes : int;
  (* A binary min-heap of node ids keyed by head-message seq. *)
  mutable hp_seq : int array;
  mutable hp_id : int array;
  mutable hp_len : int;
  filler : node; (* "no node": fills empty table slots; never queued or active *)
  mutable next_seq : int;
  mutable pending_count : int;
  mutable executing : int;
  idle : Sync.Waitq.t; (* drain waiters *)
  mutable pool : worker array; (* every worker, by [wid] *)
  mutable n_pool : int;
  (* Parked workers' ids, a stack: [idle_ids.(n_idle - 1)] parked last. *)
  mutable idle_ids : int array;
  mutable n_idle : int;
  isolation : Isolation.t option;
  obs : Wafl_obs.Trace.t;
  obs_on : bool; (* Trace.enabled obs, hoisted off the hot path *)
  causal_on : bool; (* Causal.enabled obs, hoisted likewise *)
  m_msgs : Metrics.counter;
  g_queued : Metrics.gauge;
  g_executing : Metrics.gauge;
}

let new_node ~id ~aff ~parent ~kind =
  {
    id;
    aff;
    parent;
    active = false;
    desc_active = 0;
    self_parked = false;
    parked = [||];
    n_parked = 0;
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
  let filler = new_node ~id:(-1) ~aff:Affinity.Serial ~parent:None ~kind:"" in
  {
    eng;
    cost;
    workers;
    nodes = Nodes.create 64;
    tbl = Array.make 64 filler;
    n_nodes = 0;
    hp_seq = Array.make 64 0;
    hp_id = Array.make 64 0;
    hp_len = 0;
    filler;
    next_seq = 0;
    pending_count = 0;
    executing = 0;
    idle = Sync.Waitq.create eng;
    pool = Array.make 8 { wid = -1; node = -1; msg = no_msg; fiber = None };
    n_pool = 0;
    idle_ids = Array.make 8 0;
    n_idle = 0;
    isolation;
    obs;
    obs_on = Wafl_obs.Trace.enabled obs;
    causal_on = Wafl_obs.Causal.enabled obs;
    m_msgs = Metrics.counter m "sched.messages";
    g_queued = Metrics.gauge m "sched.queued";
    g_executing = Metrics.gauge m "sched.executing";
  }

let isolation t = t.isolation

let rec node t aff =
  match Nodes.find t.nodes aff with
  | n -> n
  | exception Not_found ->
      let parent = Option.map (node t) (Affinity.parent aff) in
      let n = new_node ~id:t.n_nodes ~aff ~parent ~kind:(Affinity.kind_name aff) in
      if t.n_nodes = Array.length t.tbl then begin
        let a = Array.make (2 * t.n_nodes) t.filler in
        Array.blit t.tbl 0 a 0 t.n_nodes;
        t.tbl <- a
      end;
      t.tbl.(t.n_nodes) <- n;
      t.n_nodes <- t.n_nodes + 1;
      Nodes.add t.nodes aff n;
      n

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

(* --- the pending-head heap (node ids, min-heap on head-message seq) --- *)

let hp_push t n =
  let seq = (Wafl_util.Fifo.peek n.q).seq in
  let cap = Array.length t.hp_seq in
  if t.hp_len = cap then begin
    let sq = Array.make (2 * cap) 0 and id = Array.make (2 * cap) 0 in
    Array.blit t.hp_seq 0 sq 0 t.hp_len;
    Array.blit t.hp_id 0 id 0 t.hp_len;
    t.hp_seq <- sq;
    t.hp_id <- id
  end;
  let i = ref t.hp_len in
  t.hp_len <- t.hp_len + 1;
  let continue_up = ref true in
  while !continue_up && !i > 0 do
    let parent = (!i - 1) / 2 in
    if t.hp_seq.(parent) < seq then continue_up := false
    else begin
      t.hp_seq.(!i) <- t.hp_seq.(parent);
      t.hp_id.(!i) <- t.hp_id.(parent);
      i := parent
    end
  done;
  t.hp_seq.(!i) <- seq;
  t.hp_id.(!i) <- n.id

(* Remove the minimum (slot 0); the caller has already read it. *)
let hp_remove_min t =
  t.hp_len <- t.hp_len - 1;
  let n = t.hp_len in
  if n > 0 then begin
    let seq = t.hp_seq.(n) and id = t.hp_id.(n) in
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
          t.hp_id.(!i) <- t.hp_id.(!s);
          i := !s
        end
      end
    done;
    t.hp_seq.(!i) <- seq;
    t.hp_id.(!i) <- id
  end

(* --- conflict state and parking --- *)

(* The walks up the parent chain are top-level functions: a local
   recursive closure, or an [option] result, would allocate on every
   grant and release. *)

(* The nearest active node among [p] and its ancestors (pass a node's
   parent for its active ancestor); [t.filler] when there is none.  At
   most one node on a chain is active. *)
let rec active_above t = function
  | None -> t.filler
  | Some p -> if p.active then p else active_above t p.parent

let park_on b n =
  if b.n_parked = Array.length b.parked then begin
    let a = Array.make (max 4 (2 * b.n_parked)) 0 in
    Array.blit b.parked 0 a 0 b.n_parked;
    b.parked <- a
  end;
  b.parked.(b.n_parked) <- n.id;
  b.n_parked <- b.n_parked + 1

let rec activate_up = function
  | None -> ()
  | Some p ->
      p.desc_active <- p.desc_active + 1;
      activate_up p.parent

let activate n =
  n.active <- true;
  activate_up n.parent

(* One descendant fewer is active at [p] and above; an ancestor parked
   on itself goes back into the heap once none is left. *)
let rec release_up t = function
  | None -> ()
  | Some p ->
      p.desc_active <- p.desc_active - 1;
      if p.desc_active = 0 && p.self_parked then begin
        p.self_parked <- false;
        hp_push t p
      end;
      release_up t p.parent

(* [n] stops executing: every node parked on it, and [n] itself if it
   still has messages, goes back into the heap. *)
let release t n =
  n.active <- false;
  release_up t n.parent;
  for i = 0 to n.n_parked - 1 do
    hp_push t t.tbl.(n.parked.(i))
  done;
  n.n_parked <- 0;
  if n.self_parked && n.desc_active = 0 then begin
    n.self_parked <- false;
    hp_push t n
  end

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
     release t n;
     raise exn);
  (match t.isolation with
  | Some iso -> Isolation.exit iso ~fid:(Engine.current_fid t.eng)
  | None -> ());
  release t n;
  Metrics.observe (service_histo t n) (Engine.now t.eng -. t0);
  Metrics.incr t.m_msgs;
  t.executing <- t.executing - 1;
  Metrics.set t.g_executing (float_of_int t.executing)

(* A worker executes its granted message, re-enters dispatch (the old
   per-message fiber did the same on its way out), then parks in the
   idle pool until the next grant fills its slot. *)
let rec worker_loop t w =
  if w.msg != no_msg then begin
    let n = t.tbl.(w.node) and m = w.msg in
    w.msg <- no_msg;
    exec t n m;
    (* Workers are reused across unrelated messages: deactivate the
       body's causal context, so message A's can never parent message
       B's spans. *)
    if t.obs_on then Wafl_obs.Causal.fiber_reset t.obs;
    if t.executing = 0 && t.pending_count = 0 then ignore (Sync.Waitq.wake_all t.idle);
    dispatch t
  end;
  if t.n_idle = Array.length t.idle_ids then begin
    let a = Array.make (2 * t.n_idle) 0 in
    Array.blit t.idle_ids 0 a 0 t.n_idle;
    t.idle_ids <- a
  end;
  t.idle_ids.(t.n_idle) <- w.wid;
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
    let w = t.pool.(t.idle_ids.(t.n_idle)) in
    w.node <- n.id;
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
    let w = { wid = t.n_pool; node = n.id; msg = m; fiber = None } in
    if t.n_pool = Array.length t.pool then begin
      let a = Array.make (2 * t.n_pool) w in
      Array.blit t.pool 0 a 0 t.n_pool;
      t.pool <- a
    end;
    t.pool.(t.n_pool) <- w;
    t.n_pool <- t.n_pool + 1;
    w.fiber <- Some (Engine.spawn t.eng ~label:m.label ~daemon:true (fun () -> worker_loop t w))
  end

(* Grant pending heads oldest-first until every worker is busy.  A
   popped head that is blocked parks on its blocker (see [t]).  A parked
   node is one a rescan of every pending message would skip, so each
   grant is still the oldest grantable message. *)
and dispatch t =
  while t.executing < t.workers && t.hp_len > 0 do
    let n = t.tbl.(t.hp_id.(0)) in
    hp_remove_min t;
    if n.active || n.desc_active > 0 then n.self_parked <- true
    else
      let b = active_above t n.parent in
      if b != t.filler then park_on b n
      else begin
        let m = Wafl_util.Fifo.pop n.q in
        t.pending_count <- t.pending_count - 1;
        Metrics.set t.g_queued (float_of_int t.pending_count);
        (* Granted with messages left: [n] is active now, so the rest
           wait on it. *)
        if not (Wafl_util.Fifo.is_empty n.q) then n.self_parked <- true;
        start t n m
      end
  done

let post t ~affinity ~label body =
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
  if was_empty then hp_push t n;
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
