(* Effects carry no payload: the float operand travels through the
   domain-local [pending] field (a flat float field, so the write never
   allocates).  The handler reads it synchronously before any other
   perform can run on the same domain, so one cell per domain is safe —
   each domain runs at most one engine at a time, strictly
   sequentially.  This keeps a consume/sleep perform allocation-free. *)
type _ Effect.t +=
  | Consume_e : unit Effect.t
  | Sleep_e : unit Effect.t
  | Yield : unit Effect.t
  | Park : unit Effect.t

(* A mutable float in a mixed record is boxed on every store; a
   single-field float record is flat, so [x.v <- ...] allocates nothing.
   Used for the clock and the per-label busy accumulators. *)
type fbox = { mutable v : float }

type state = Created | Runnable | Running | Sleeping | Parked | Done

type fiber = {
  fid : int;
  daemon : bool; (* service fiber: excluded from live count / stall diagnosis *)
  mutable label : string;
  mutable state : state;
  mutable cont : (unit, unit) Effect.Deep.continuation option;
  mutable hold_start : float;
  mutable body : (unit -> unit) option; (* cleared once started *)
  mutable join_waiters : fiber list;
  (* Busy-cell cache: when [cell_label == label] and [cell_epoch] matches
     the engine's accounting epoch, [cell] is the accumulator for this
     fiber's label and a charge is one float add — no hash lookup.  The
     label check is physical equality, so {!relabel}/{!set_label} need no
     explicit invalidation. *)
  mutable cell : fbox;
  mutable cell_label : string;
  mutable cell_epoch : int;
  (* Links in the engine's registry of unfinished fibers (newest first);
     [dummy_fiber] ends the list.  Both are reset when the fiber finishes,
     so a finished fiber keeps no neighbour alive. *)
  mutable older : fiber;
  mutable newer : fiber;
  eng : t;
}

and t = {
  n_cores : int;
  quantum : float;
  clock : fbox;
  mutable free_cores : int;
  runnable : fiber Wafl_util.Fifo.t; (* cleared slots hold [dummy_fiber] *)
  (* Event min-heap on (time, seq), struct-of-arrays so a push/pop
     allocates nothing on the hot path (the time array stays a flat
     unboxed float array).  ev_resume.(i) distinguishes a Resume (consume
     finished; the fiber still holds its core) from a Wake (sleep expired
     or delayed spawn: make runnable). *)
  mutable ev_time : float array;
  mutable ev_seq : int array;
  mutable ev_fiber : fiber array;
  mutable ev_resume : bool array;
  mutable heap_len : int;
  mutable next_seq : int;
  mutable next_fid : int;
  mutable live : int;
  mutable current : fiber; (* == dummy_fiber when no fiber is running *)
  mutable run_limit : float; (* [until] of the active run; infinity if none *)
  busy_tbl : (string, fbox) Hashtbl.t;
  mutable busy_sorted : (string * fbox) list; (* same cells, label-sorted *)
  mutable acct_epoch : int; (* bumped by reset_accounting; invalidates caches *)
  mutable window_start : float;
  mutable switches : int;
  mutable newest : fiber; (* head of the unfinished-fiber registry *)
  race : Race.t option; (* Some iff created with ~sanitize:true *)
  mutable access_hook : (int -> string -> Race.mode -> unit) option;
  mutable obs_hooks : obs_hooks option; (* observability taps; None = zero cost *)
  metrics : Metrics.t; (* the run's one registry; components publish here *)
}

and obs_hooks = {
  on_consume : fid:int -> label:string -> amount:float -> now:float -> unit;
  on_switch : fid:int -> label:string -> now:float -> unit;
  on_wake : waker:int -> wakee:int -> now:float -> unit;
  on_spawn : parent:int -> child:int -> now:float -> unit;
}

(* Per-domain scheduler context: the engine currently executing [run]
   on this domain (for the consume fast path; saved/restored around
   [run] so nested engines behave) and the operand of an in-flight
   consume/sleep perform.  Domain-local rather than process-global so
   independent engines running concurrently on worker domains
   (Wafl_util.Pool) never share scheduler state; within a domain the
   simulation stays strictly sequential, exactly as before. *)
type dctx = { mutable pending : float; mutable running : t option }

let dctx_key : dctx Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { pending = 0.0; running = None })

let dctx () = Domain.DLS.get dctx_key

(* --- binary min-heap on (time, seq), struct-of-arrays --- *)

let dummy_fiber : fiber = Obj.magic ()
let dummy_cell : fbox = { v = 0.0 }

(* Does the event at slot [i] order before (time', seq')? *)
let heap_before t i time' seq' =
  t.ev_time.(i) < time' || (t.ev_time.(i) = time' && t.ev_seq.(i) < seq')

let heap_push t time seq fiber resume =
  let cap = Array.length t.ev_time in
  if t.heap_len = cap then begin
    let cap' = max 64 (2 * cap) in
    let tm = Array.make cap' 0.0
    and sq = Array.make cap' 0
    and fb = Array.make cap' dummy_fiber
    and rs = Array.make cap' false in
    Array.blit t.ev_time 0 tm 0 t.heap_len;
    Array.blit t.ev_seq 0 sq 0 t.heap_len;
    Array.blit t.ev_fiber 0 fb 0 t.heap_len;
    Array.blit t.ev_resume 0 rs 0 t.heap_len;
    t.ev_time <- tm;
    t.ev_seq <- sq;
    t.ev_fiber <- fb;
    t.ev_resume <- rs
  end;
  (* Sift the hole up, then write the new event once. *)
  let i = ref t.heap_len in
  t.heap_len <- t.heap_len + 1;
  let continue_up = ref true in
  while !continue_up && !i > 0 do
    let parent = (!i - 1) / 2 in
    if heap_before t parent time seq then continue_up := false
    else begin
      t.ev_time.(!i) <- t.ev_time.(parent);
      t.ev_seq.(!i) <- t.ev_seq.(parent);
      t.ev_fiber.(!i) <- t.ev_fiber.(parent);
      t.ev_resume.(!i) <- t.ev_resume.(parent);
      i := parent
    end
  done;
  t.ev_time.(!i) <- time;
  t.ev_seq.(!i) <- seq;
  t.ev_fiber.(!i) <- fiber;
  t.ev_resume.(!i) <- resume

(* Remove the minimum (slot 0); the caller has already read it. *)
let heap_remove_min t =
  t.heap_len <- t.heap_len - 1;
  let n = t.heap_len in
  if n = 0 then t.ev_fiber.(0) <- dummy_fiber
  else begin
    (* Sift the last event down from the root, writing it once. *)
    let time = t.ev_time.(n)
    and seq = t.ev_seq.(n)
    and fiber = t.ev_fiber.(n)
    and resume = t.ev_resume.(n) in
    t.ev_fiber.(n) <- dummy_fiber;
    let i = ref 0 in
    let continue_down = ref true in
    while !continue_down do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      if l >= n then continue_down := false
      else begin
        (* The smaller child, or -1 if neither orders before the sifted event. *)
        let s = ref (-1) in
        if heap_before t l time seq then s := l;
        if r < n
           && heap_before t r
                (if !s >= 0 then t.ev_time.(l) else time)
                (if !s >= 0 then t.ev_seq.(l) else seq)
        then s := r;
        if !s < 0 then continue_down := false
        else begin
          t.ev_time.(!i) <- t.ev_time.(!s);
          t.ev_seq.(!i) <- t.ev_seq.(!s);
          t.ev_fiber.(!i) <- t.ev_fiber.(!s);
          t.ev_resume.(!i) <- t.ev_resume.(!s);
          i := !s
        end
      end
    done;
    t.ev_time.(!i) <- time;
    t.ev_seq.(!i) <- seq;
    t.ev_fiber.(!i) <- fiber;
    t.ev_resume.(!i) <- resume
  end

(* --- engine --- *)

let create ?(quantum = 100.0) ?(sanitize = false) ~cores () =
  if cores <= 0 then invalid_arg "Engine.create: cores must be positive";
  {
    n_cores = cores;
    quantum;
    clock = { v = 0.0 };
    free_cores = cores;
    runnable = Wafl_util.Fifo.create ~dummy:dummy_fiber;
    ev_time = Array.make 64 0.0;
    ev_seq = Array.make 64 0;
    ev_fiber = Array.make 64 dummy_fiber;
    ev_resume = Array.make 64 false;
    heap_len = 0;
    next_seq = 0;
    next_fid = 0;
    live = 0;
    current = dummy_fiber;
    run_limit = infinity;
    busy_tbl = Hashtbl.create 16;
    busy_sorted = [];
    acct_epoch = 0;
    window_start = 0.0;
    switches = 0;
    newest = dummy_fiber;
    race = (if sanitize then Some (Race.create ()) else None);
    access_hook = None;
    obs_hooks = None;
    metrics = Metrics.create ();
  }

let fiber_fifo () = Wafl_util.Fifo.create ~dummy:dummy_fiber
let cores t = t.n_cores
let metrics t = t.metrics
let now t = t.clock.v

(* --- sanitizer plumbing --- *)

let sanitizing t = t.race <> None
let race t = t.race
let current_fid t = if t.current == dummy_fiber then Race.main_fid else t.current.fid
let current_label t = if t.current == dummy_fiber then "main" else t.current.label

let probe t ~shared mode =
  match t.race with
  | None -> ()
  | Some r ->
      let fid = current_fid t in
      Race.access r ~fid ~label:(current_label t) ~now:t.clock.v ~shared mode;
      (match t.access_hook with Some h -> h fid shared mode | None -> ())

(* Models an operation on an atomically/lock-protected structure whose
   lock the simulation does not charge: a paired acquire+release on a
   per-id sync clock.  Never reports; orders this fiber after every
   earlier probe_atomic on the same id. *)
let probe_atomic t ~shared =
  match t.race with
  | None -> ()
  | Some r ->
      let fid = current_fid t in
      let sync = Race.sync_id r shared in
      Race.acquire r ~fid ~sync;
      Race.release r ~fid ~sync

(* An access under a per-id lock the simulation does not charge (e.g. a
   buffer lock): the access is recorded — so the isolation checker still
   validates it against the running affinity — but it happens inside an
   acquire/release pair on the id's sync clock, so same-id accesses are
   totally ordered and never reported as races. *)
let probe_locked t ~shared mode =
  match t.race with
  | None -> ()
  | Some r ->
      let fid = current_fid t in
      let sync = Race.sync_id r shared in
      Race.acquire r ~fid ~sync;
      Race.access r ~fid ~label:(current_label t) ~now:t.clock.v ~shared mode;
      (match t.access_hook with Some h -> h fid shared mode | None -> ());
      Race.release r ~fid ~sync

let set_access_hook t h = t.access_hook <- Some h

(* Observability taps (see Wafl_obs).  Like the sanitizer probes, these
   run synchronously inside existing scheduling decisions and must never
   consume virtual time or schedule events, so an instrumented run stays
   bit-identical to an uninstrumented one.  With no hooks installed each
   site is a single branch. *)
let set_obs_hooks t h = t.obs_hooks <- Some h
let clear_obs_hooks t = t.obs_hooks <- None
let race_reports t = match t.race with None -> [] | Some r -> Race.reports r
let race_report_count t = match t.race with None -> 0 | Some r -> Race.n_reports r

let schedule t time fiber ~resume =
  let seq = t.next_seq in
  t.next_seq <- t.next_seq + 1;
  heap_push t time seq fiber resume

(* Keep [busy_sorted] ordered by label so the read side never re-sorts;
   new labels are rare (a handful per run), so the insertion is cheap. *)
let rec insert_sorted label r = function
  | [] -> [ (label, r) ]
  | (l, _) :: _ as rest when String.compare label l < 0 -> (label, r) :: rest
  | kv :: rest -> kv :: insert_sorted label r rest

(* Charge [d] to [f]'s label.  The fiber caches its accumulator cell, so
   the steady state is one physical-equality check and one float add. *)
let charge t f d =
  if f.cell_label == f.label && f.cell_epoch = t.acct_epoch then
    f.cell.v <- f.cell.v +. d
  else begin
    let cell =
      match Hashtbl.find_opt t.busy_tbl f.label with
      | Some c -> c
      | None ->
          let c = { v = 0.0 } in
          Hashtbl.add t.busy_tbl f.label c;
          t.busy_sorted <- insert_sorted f.label c t.busy_sorted;
          c
    in
    f.cell <- cell;
    f.cell_label <- f.label;
    f.cell_epoch <- t.acct_epoch;
    cell.v <- cell.v +. d
  end

let enqueue_runnable t f =
  f.state <- Runnable;
  Wafl_util.Fifo.push t.runnable f

let release_core t = t.free_cores <- t.free_cores + 1

(* Unlink [f] from the unfinished-fiber registry in O(1); nothing else
   in the engine refers to a finished fiber, so it becomes garbage once
   its spawner drops the handle. *)
let unregister t f =
  if f.newer == dummy_fiber then t.newest <- f.older else f.newer.older <- f.older;
  if f.older != dummy_fiber then f.older.newer <- f.newer;
  f.older <- dummy_fiber;
  f.newer <- dummy_fiber

let finish_fiber t f =
  f.state <- Done;
  unregister t f;
  if not f.daemon then t.live <- t.live - 1;
  release_core t;
  (match t.race with
  | Some r ->
      List.iter (fun w -> Race.edge r ~from_:f.fid ~to_:w.fid) f.join_waiters;
      Race.finish_fiber r ~fid:f.fid
  | None -> ());
  (match t.obs_hooks with
  | Some h ->
      List.iter (fun w -> h.on_wake ~waker:f.fid ~wakee:w.fid ~now:t.clock.v) f.join_waiters
  | None -> ());
  List.iter (fun w -> enqueue_runnable t w) f.join_waiters;
  f.join_waiters <- []

(* Execute the fiber's body under the effect handler.  Control returns to
   the scheduler whenever the fiber performs an effect that stores its
   continuation (or when it finishes).  The per-effect continuation
   consumers are allocated once per fiber here, not per perform. *)
let start_fiber t f body =
  let consume_k (k : (unit, unit) Effect.Deep.continuation) =
    f.cont <- Some k;
    let d = (dctx ()).pending in
    charge t f d;
    (match t.obs_hooks with
    | Some h -> h.on_consume ~fid:f.fid ~label:f.label ~amount:d ~now:t.clock.v
    | None -> ());
    schedule t (t.clock.v +. d) f ~resume:true
  in
  let sleep_k (k : (unit, unit) Effect.Deep.continuation) =
    f.cont <- Some k;
    f.state <- Sleeping;
    release_core t;
    schedule t (t.clock.v +. (dctx ()).pending) f ~resume:false
  in
  let yield_k (k : (unit, unit) Effect.Deep.continuation) =
    f.cont <- Some k;
    release_core t;
    enqueue_runnable t f
  in
  let park_k (k : (unit, unit) Effect.Deep.continuation) =
    f.cont <- Some k;
    f.state <- Parked;
    release_core t
  in
  let consume_o = Some consume_k
  and sleep_o = Some sleep_k
  and yield_o = Some yield_k
  and park_o = Some park_k in
  let handler =
    {
      Effect.Deep.retc = (fun () -> finish_fiber t f);
      exnc = (fun exn -> raise exn);
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Consume_e -> (consume_o : ((a, unit) Effect.Deep.continuation -> unit) option)
          | Sleep_e -> sleep_o
          | Yield -> yield_o
          | Park -> park_o
          | _ -> None);
    }
  in
  Effect.Deep.match_with body () handler

let resume_fiber t f =
  match f.cont with
  | None -> (
      match f.body with
      | Some body ->
          f.body <- None;
          f.state <- Running;
          t.current <- f;
          start_fiber t f body;
          t.current <- dummy_fiber
      | None -> invalid_arg "Engine: resuming a fiber with no continuation")
  | Some k ->
      f.cont <- None;
      f.state <- Running;
      t.current <- f;
      Effect.Deep.continue k ();
      t.current <- dummy_fiber

(* Dispatch runnable fibers onto free cores. *)
let dispatch t =
  while t.free_cores > 0 && not (Wafl_util.Fifo.is_empty t.runnable) do
    let f = Wafl_util.Fifo.pop t.runnable in
    t.free_cores <- t.free_cores - 1;
    t.switches <- t.switches + 1;
    f.hold_start <- t.clock.v;
    (match t.obs_hooks with
    | Some h -> h.on_switch ~fid:f.fid ~label:f.label ~now:t.clock.v
    | None -> ());
    resume_fiber t f
  done

let spawn t ?(label = "other") ?(daemon = false) ?at body =
  let f =
    {
      fid = t.next_fid;
      daemon;
      label;
      state = Created;
      cont = None;
      hold_start = 0.0;
      body = Some body;
      join_waiters = [];
      cell = dummy_cell;
      cell_label = "";
      cell_epoch = -1;
      older = t.newest;
      newer = dummy_fiber;
      eng = t;
    }
  in
  t.next_fid <- t.next_fid + 1;
  if not daemon then t.live <- t.live + 1;
  if t.newest != dummy_fiber then t.newest.newer <- f;
  t.newest <- f;
  (match t.race with
  | Some r -> Race.add_fiber r ~parent:(current_fid t) ~fid:f.fid
  | None -> ());
  (match t.obs_hooks with
  | Some h -> h.on_spawn ~parent:(current_fid t) ~child:f.fid ~now:t.clock.v
  | None -> ());
  (match at with
  | None -> enqueue_runnable t f
  | Some time ->
      if time < t.clock.v then invalid_arg "Engine.spawn: at is in the past";
      f.state <- Sleeping;
      schedule t time f ~resume:false);
  f

let run ?until t =
  let dc = dctx () in
  let saved = dc.running in
  dc.running <- Some t;
  t.run_limit <- (match until with Some l -> l | None -> infinity);
  Fun.protect
    ~finally:(fun () -> dc.running <- saved)
    (fun () ->
      let stop = ref false in
      while not !stop do
        dispatch t;
        if t.heap_len = 0 then stop := true
        else begin
          let time = t.ev_time.(0) in
          match until with
          | Some limit when time > limit ->
              t.clock.v <- limit;
              stop := true
          | _ ->
              let f = t.ev_fiber.(0) in
              let resume = t.ev_resume.(0) in
              heap_remove_min t;
              t.clock.v <- time;
              if not resume then enqueue_runnable t f
              else if
                t.quantum > 0.0
                && t.clock.v -. f.hold_start >= t.quantum
                && not (Wafl_util.Fifo.is_empty t.runnable)
              then begin
                release_core t;
                enqueue_runnable t f
              end
              else resume_fiber t f
        end
      done;
      (* If we stopped because of [until] there may still be runnable fibers;
         leave them queued for the next call. *)
      (match until with
      | Some limit when t.clock.v < limit && t.heap_len = 0 && Wafl_util.Fifo.is_empty t.runnable ->
          t.clock.v <- limit
      | _ -> ());
      (* The host context now observes everything that ran (cooperative,
         single-threaded), so its clock must dominate all of it. *)
      match t.race with Some r -> Race.absorb_all r | None -> ())

let stalled_fibers t =
  if t.heap_len > 0 || not (Wafl_util.Fifo.is_empty t.runnable) then []
  else
    let rec collect acc f =
      if f == dummy_fiber then List.rev acc
      else
        collect
          (if f.state = Parked && not f.daemon then (f.fid, f.label) :: acc else acc)
          f.older
    in
    collect [] t.newest

let live_fibers t = t.live
let pending_work t = t.heap_len > 0 || not (Wafl_util.Fifo.is_empty t.runnable)

(* --- fiber-context operations --- *)

(* Fast path: when the running fiber's resume event would be the very
   next thing the event loop processes — no fiber is runnable and
   clock+d strictly precedes every queued event (our event would carry
   the largest seq, so a time tie goes to the queued event) — performing
   the effect, scheduling, popping and resuming is observable only as
   "charge d and advance the clock".  Doing exactly that inline skips
   two stack switches and the heap round-trip.  The [run_limit] guard
   keeps warmup/measure windows exact: an event past [until] must stay
   queued with the clock pinned at the limit, so that case suspends. *)
let consume d =
  if d > 0.0 then begin
    let dc = dctx () in
    match dc.running with
    | Some t
      when t.current != dummy_fiber
           && Wafl_util.Fifo.is_empty t.runnable
           && (t.heap_len = 0 || t.clock.v +. d < t.ev_time.(0))
           && t.clock.v +. d <= t.run_limit ->
        let f = t.current in
        charge t f d;
        (match t.obs_hooks with
        | Some h -> h.on_consume ~fid:f.fid ~label:f.label ~amount:d ~now:t.clock.v
        | None -> ());
        t.next_seq <- t.next_seq + 1;
        t.clock.v <- t.clock.v +. d
    | _ ->
        dc.pending <- d;
        Effect.perform Consume_e
  end

let sleep d =
  if d > 0.0 then begin
    (dctx ()).pending <- d;
    Effect.perform Sleep_e
  end
  else Effect.perform Yield

let yield () = Effect.perform Yield

let self t =
  if t.current == dummy_fiber then invalid_arg "Engine.self: no fiber is running"
  else t.current

let set_label t label = (self t).label <- label
let relabel f label = f.label <- label
let fiber_id f = f.fid
let fiber_label f = f.label
let finished f = f.state = Done

let park t =
  ignore (self t);
  Effect.perform Park

let wake t f =
  match f.state with
  | Parked ->
      (match t.race with
      | Some r -> Race.edge r ~from_:(current_fid t) ~to_:f.fid
      | None -> ());
      (match t.obs_hooks with
      | Some h -> h.on_wake ~waker:(current_fid t) ~wakee:f.fid ~now:t.clock.v
      | None -> ());
      enqueue_runnable t f
  | _ -> invalid_arg "Engine.wake: fiber is not parked"

let join t f =
  if not (finished f) then begin
    let me = self t in
    f.join_waiters <- me :: f.join_waiters;
    Effect.perform Park
  end
  else
    (* Already finished: the waiter still inherits the fiber's history. *)
    match t.race with
    | Some r -> Race.edge r ~from_:f.fid ~to_:(self t).fid
    | None -> ()

(* --- accounting --- *)

let reset_accounting t =
  Hashtbl.reset t.busy_tbl;
  t.busy_sorted <- [];
  t.acct_epoch <- t.acct_epoch + 1;
  t.window_start <- t.clock.v

let busy t label =
  match Hashtbl.find_opt t.busy_tbl label with Some c -> c.v | None -> 0.0

(* [busy_sorted] is maintained label-sorted at insertion, so this neither
   walks the hash table nor re-sorts. *)
let busy_labels t = List.map (fun (k, c) -> (k, c.v)) t.busy_sorted

let window t = t.clock.v -. t.window_start

let cores_used t label =
  let w = window t in
  if w <= 0.0 then 0.0 else busy t label /. w

let utilization t =
  let w = window t in
  if w <= 0.0 then 0.0
  else
    (* Sum in sorted label order: float addition is not associative, so a
       hash-order sum would depend on table internals. *)
    let total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 (busy_labels t) in
    total /. (w *. float_of_int t.n_cores)

let context_switches t = t.switches
