(* The event loop holds no pointers.  Every unfinished fiber owns a slot
   in the engine's fiber table ([fibers]); the event heap, the runnable
   queue and the running-fiber register hold slot numbers, and the time
   a fiber took its core lives in the flat [hold] array.  A push, a pop
   or a sift level therefore writes only ints and unboxed floats: no
   [caml_modify], no boxing.  A finished fiber's slot is reused, and the
   table halves once a quarter of it is in use (renumbering the live
   slots), so the host heap tracks the fibers alive, not the peak.

   Effects carry no payload: the float operand of a consume or sleep
   travels through the engine's flat [operand] cell, written just before
   the perform and read by the handler before any other fiber runs.  The
   cell is the engine's, not the domain's, because a partition's engine
   may run on a different pool domain in each window.  The handler is
   built once per engine and finds the suspending fiber through the
   running slot, and a continuation is stored against the [no_cont]
   sentinel rather than wrapped in an option, so a suspend allocates
   only the continuation the runtime makes per perform.

   The loop hands off: a suspend handler ends by resuming the next fiber
   in tail position ([next]), so control passes from fiber to fiber
   without unwinding to [run] between them. *)
type _ Effect.t +=
  | Consume_e : unit Effect.t
  | Sleep_e : unit Effect.t
  | Yield : unit Effect.t
  | Park : unit Effect.t

(* A mutable float in a mixed record is boxed on every store; a
   single-field float record is flat, so [x.v <- ...] allocates nothing.
   Used for the clock, the effect operand and the per-label busy
   accumulators. *)
type fbox = { mutable v : float }

type state = Created | Runnable | Running | Sleeping | Parked | Done

type fiber = {
  fid : int;
  daemon : bool; (* service fiber: excluded from live count / stall diagnosis *)
  mutable label : string;
  mutable state : state;
  mutable slot : int; (* index in the engine's fiber table; -1 once finished *)
  mutable cont : (unit, unit) Effect.Deep.continuation; (* [no_cont] until it suspends *)
  mutable body : unit -> unit; (* [no_body] once started *)
  mutable join_waiters : fiber list;
  (* Busy-cell cache: when [cell_label == label] and [cell_epoch] matches
     the engine's accounting epoch, [cell] is the accumulator for this
     fiber's label and a charge is one float add — no hash lookup.  The
     label check is physical equality, so {!relabel}/{!set_label} need no
     explicit invalidation. *)
  mutable cell : fbox;
  mutable cell_label : string;
  mutable cell_epoch : int;
}

and t = {
  n_cores : int;
  quantum : float;
  clock : fbox;
  operand : fbox; (* the float of an in-flight consume/sleep perform *)
  mutable free_cores : int;
  (* The fiber table: [fibers.(s)] is the fiber in slot [s] ([dummy_fiber]
     if free) and [hold.(s)] when it last took a core.  Slots below
     [slots_hi] that are free sit on the [free_slots] stack. *)
  mutable fibers : fiber array;
  mutable hold : float array;
  mutable free_slots : int array;
  mutable n_free : int;
  mutable slots_hi : int;
  (* Runnable slots, oldest first: a ring of [rq_len] slots from [rq_head]
     over a power-of-two array. *)
  mutable rq : int array;
  mutable rq_head : int;
  mutable rq_len : int;
  (* Event min-heap on (time, seq), struct-of-arrays.  ev_key.(i) is
     [seq lsl 1], plus 1 for a Resume (consume finished; the fiber still
     holds its core) rather than a Wake (sleep expired or delayed spawn:
     make runnable).  Seqs are unique, so keys order as seqs do. *)
  mutable ev_time : float array;
  mutable ev_key : int array;
  mutable ev_slot : int array;
  mutable heap_len : int;
  mutable next_seq : int;
  mutable next_fid : int;
  mutable live : int;
  mutable cur : int; (* slot of the running fiber; -1 when none is running *)
  mutable run_limit : float; (* [until] of the active run; infinity if none *)
  mutable handler : (unit, unit) Effect.Deep.handler; (* set once by [create] *)
  busy_tbl : (string, fbox) Hashtbl.t;
  mutable busy_sorted : (string * fbox) list; (* same cells, label-sorted *)
  mutable acct_epoch : int; (* bumped by reset_accounting; invalidates caches *)
  mutable window_start : float;
  mutable switches : int;
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

(* The engine currently executing [run] on this domain, for the consume
   fast path and to find the operand cell; saved/restored around [run]
   so nested engines behave.  Domain-local rather than process-global so
   independent engines running concurrently on worker domains
   (Wafl_util.Pool) never share scheduler state; within a domain the
   simulation stays strictly sequential. *)
type dctx = { mutable running : t option }

let dctx_key : dctx Domain.DLS.key = Domain.DLS.new_key (fun () -> { running = None })
let dctx () = Domain.DLS.get dctx_key

(* Sentinels, never run: an empty table slot or queue slot, a fiber that
   has not suspended yet, and a fiber that has started. *)
let dummy_fiber : fiber = Obj.magic ()
let no_cont : (unit, unit) Effect.Deep.continuation = Obj.magic ()
let no_body () = ()
let dummy_cell : fbox = { v = 0.0 }
let min_slots = 64

(* --- binary min-heap on (time, seq), struct-of-arrays --- *)

(* Does event (time, key) order before event (time', key')? *)
let[@inline] before (time : float) (key : int) time' key' =
  time < time' || (time = time' && key < key')

let[@inline never] heap_grow t =
  let cap' = 2 * Array.length t.ev_time in
  let tm = Array.make cap' 0.0 and ky = Array.make cap' 0 and sl = Array.make cap' 0 in
  Array.blit t.ev_time 0 tm 0 t.heap_len;
  Array.blit t.ev_key 0 ky 0 t.heap_len;
  Array.blit t.ev_slot 0 sl 0 t.heap_len;
  t.ev_time <- tm;
  t.ev_key <- ky;
  t.ev_slot <- sl

(* The sifts index only below [heap_len], within the arrays, so they
   skip the bounds checks.  Inlined so that [time] stays unboxed.  Sift
   the hole up, then write the new event once. *)
let[@inline] heap_push t time key slot =
  if t.heap_len = Array.length t.ev_time then heap_grow t;
  let tm = t.ev_time and ky = t.ev_key and sl = t.ev_slot in
  let i = ref t.heap_len in
  t.heap_len <- t.heap_len + 1;
  while
    !i > 0
    && before time key (Array.unsafe_get tm ((!i - 1) / 2)) (Array.unsafe_get ky ((!i - 1) / 2))
  do
    let p = (!i - 1) / 2 in
    Array.unsafe_set tm !i (Array.unsafe_get tm p);
    Array.unsafe_set ky !i (Array.unsafe_get ky p);
    Array.unsafe_set sl !i (Array.unsafe_get sl p);
    i := p
  done;
  Array.unsafe_set tm !i time;
  Array.unsafe_set ky !i key;
  Array.unsafe_set sl !i slot

(* Remove the minimum (slot 0); the caller has already read it.  Sift
   the last event down from the root, writing it once. *)
let heap_remove_min t =
  let n = t.heap_len - 1 in
  t.heap_len <- n;
  if n > 0 then begin
    let tm = t.ev_time and ky = t.ev_key and sl = t.ev_slot in
    let time = Array.unsafe_get tm n and key = Array.unsafe_get ky n in
    let slot = Array.unsafe_get sl n in
    let i = ref 0 and c = ref 1 in
    while !c < n do
      (* The earlier child moves up if it orders before the sifted event. *)
      let l = !c in
      let c' =
        if
          l + 1 < n
          && before (Array.unsafe_get tm (l + 1)) (Array.unsafe_get ky (l + 1))
               (Array.unsafe_get tm l) (Array.unsafe_get ky l)
        then l + 1
        else l
      in
      if before (Array.unsafe_get tm c') (Array.unsafe_get ky c') time key then begin
        Array.unsafe_set tm !i (Array.unsafe_get tm c');
        Array.unsafe_set ky !i (Array.unsafe_get ky c');
        Array.unsafe_set sl !i (Array.unsafe_get sl c');
        i := c';
        c := (2 * c') + 1
      end
      else c := n
    done;
    Array.unsafe_set tm !i time;
    Array.unsafe_set ky !i key;
    Array.unsafe_set sl !i slot
  end

(* --- the runnable ring --- *)

let[@inline never] rq_resize t cap =
  let rq = Array.make cap 0 and mask = Array.length t.rq - 1 in
  for i = 0 to t.rq_len - 1 do
    rq.(i) <- t.rq.((t.rq_head + i) land mask)
  done;
  t.rq <- rq;
  t.rq_head <- 0

let rq_push t slot =
  if t.rq_len = Array.length t.rq then rq_resize t (2 * t.rq_len);
  t.rq.((t.rq_head + t.rq_len) land (Array.length t.rq - 1)) <- slot;
  t.rq_len <- t.rq_len + 1

(* The caller has checked [rq_len > 0].  The ring halves once an eighth
   of it is in use, so a burst leaves no large array behind. *)
let rq_pop t =
  let slot = t.rq.(t.rq_head) and cap = Array.length t.rq in
  t.rq_head <- (t.rq_head + 1) land (cap - 1);
  t.rq_len <- t.rq_len - 1;
  if cap > 8 && t.rq_len <= cap / 8 then rq_resize t (cap / 2);
  slot

(* --- the fiber table --- *)

(* Move the live fibers to the low slots of fresh arrays of [cap] slots
   (in slot order) and renumber every slot the heap, the runnable ring
   and the running register hold.  Amortized O(1) per spawn or finish:
   the table doubles when full and halves when a quarter full. *)
let[@inline never] relocate t cap =
  let fibers = Array.make cap dummy_fiber and hold = Array.make cap 0.0 in
  let renum = Array.make t.slots_hi (-1) and n = ref 0 in
  for s = 0 to t.slots_hi - 1 do
    let f = t.fibers.(s) in
    if f != dummy_fiber then begin
      fibers.(!n) <- f;
      hold.(!n) <- t.hold.(s);
      f.slot <- !n;
      renum.(s) <- !n;
      incr n
    end
  done;
  for i = 0 to t.heap_len - 1 do
    t.ev_slot.(i) <- renum.(t.ev_slot.(i))
  done;
  let mask = Array.length t.rq - 1 in
  for i = 0 to t.rq_len - 1 do
    let j = (t.rq_head + i) land mask in
    t.rq.(j) <- renum.(t.rq.(j))
  done;
  if t.cur >= 0 then t.cur <- renum.(t.cur);
  t.fibers <- fibers;
  t.hold <- hold;
  t.free_slots <- Array.make cap 0;
  t.n_free <- 0;
  t.slots_hi <- !n

let alloc_slot t f =
  let s =
    if t.n_free > 0 then begin
      t.n_free <- t.n_free - 1;
      t.free_slots.(t.n_free)
    end
    else begin
      if t.slots_hi = Array.length t.fibers then relocate t (2 * t.slots_hi);
      t.slots_hi <- t.slots_hi + 1;
      t.slots_hi - 1
    end
  in
  t.fibers.(s) <- f;
  f.slot <- s

let free_slot t f =
  t.fibers.(f.slot) <- dummy_fiber;
  t.free_slots.(t.n_free) <- f.slot;
  t.n_free <- t.n_free + 1;
  f.slot <- -1;
  let cap = Array.length t.fibers in
  if cap > min_slots && 4 * (t.slots_hi - t.n_free) <= cap then relocate t (cap / 2)

let fiber_fifo () = Wafl_util.Fifo.create ~dummy:dummy_fiber
let cores t = t.n_cores
let metrics t = t.metrics
let now t = t.clock.v

(* --- sanitizer plumbing --- *)

let sanitizing t = t.race <> None
let race t = t.race
let current_fid t = if t.cur < 0 then Race.main_fid else t.fibers.(t.cur).fid
let current_label t = if t.cur < 0 then "main" else t.fibers.(t.cur).label

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

let[@inline] schedule t time slot ~resume =
  let seq = t.next_seq in
  t.next_seq <- t.next_seq + 1;
  heap_push t time ((seq lsl 1) lor Bool.to_int resume) slot

(* Keep [busy_sorted] ordered by label so the read side never re-sorts;
   new labels are rare (a handful per run), so the insertion is cheap. *)
let rec insert_sorted label r = function
  | [] -> [ (label, r) ]
  | (l, _) :: _ as rest when String.compare label l < 0 -> (label, r) :: rest
  | kv :: rest -> kv :: insert_sorted label r rest

(* Point [f]'s busy-cell cache at its label's accumulator. *)
let[@inline never] recache t f =
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
  f.cell_epoch <- t.acct_epoch

(* Charge [d] to [f]'s label.  The fiber caches its accumulator cell, so
   the steady state is one physical-equality check and one float add. *)
let[@inline] charge t f d =
  if not (f.cell_label == f.label && f.cell_epoch = t.acct_epoch) then recache t f;
  f.cell.v <- f.cell.v +. d

let enqueue_runnable t f =
  f.state <- Runnable;
  rq_push t f.slot

let release_core t = t.free_cores <- t.free_cores + 1

(* The fiber leaves the table, so the engine keeps nothing of it: it is
   garbage once its spawner drops the handle. *)
let finish_fiber t f =
  f.state <- Done;
  f.cont <- no_cont;
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
  f.join_waiters <- [];
  free_slot t f

(* Start or continue [f] on its core.  Called only in tail position:
   the fiber runs until it suspends or finishes, and its handler goes on
   with [next]. *)
let resume_fiber t f =
  f.state <- Running;
  t.cur <- f.slot;
  if f.cont != no_cont then Effect.Deep.continue f.cont ()
  else begin
    let body = f.body in
    if body == no_body then invalid_arg "Engine: resuming a fiber with no continuation";
    f.body <- no_body;
    Effect.Deep.match_with body () t.handler
  end

(* The event loop, one step per call: dispatch the oldest runnable
   fiber onto a free core or, failing that, take the earliest event.
   Every step that runs a fiber ends in a tail call into it, and every
   suspend handler ends in a tail call back here, so control passes from
   fiber to fiber without returning to [run] (a direct handoff costs
   about half a return-to-loop switch).  [next] returns only when the
   run stops: nothing is left to do, or the next event lies past the
   run's limit. *)
let rec next t =
  if t.free_cores > 0 && t.rq_len > 0 then begin
    let s = rq_pop t in
    let f = t.fibers.(s) in
    t.free_cores <- t.free_cores - 1;
    t.switches <- t.switches + 1;
    t.hold.(s) <- t.clock.v;
    (match t.obs_hooks with
    | Some h -> h.on_switch ~fid:f.fid ~label:f.label ~now:t.clock.v
    | None -> ());
    resume_fiber t f
  end
  else if t.heap_len > 0 then begin
    let time = t.ev_time.(0) in
    if time > t.run_limit then t.clock.v <- t.run_limit
    else begin
      let s = t.ev_slot.(0) and resume = t.ev_key.(0) land 1 = 1 in
      heap_remove_min t;
      t.clock.v <- time;
      let f = t.fibers.(s) in
      if resume && not (t.quantum > 0.0 && time -. t.hold.(s) >= t.quantum && t.rq_len > 0)
      then resume_fiber t f
      else begin
        (* A wake, or a resume past the quantum with others waiting: the
           fiber queues for a core. *)
        if resume then release_core t;
        enqueue_runnable t f;
        next t
      end
    end
  end

(* The engine's one effect handler.  The suspending (or finishing)
   fiber is the one in the running slot; each case records it, clears
   the slot and goes on with [next]. *)
let make_handler t : (unit, unit) Effect.Deep.handler =
  let consume_k (k : (unit, unit) Effect.Deep.continuation) =
    let f = t.fibers.(t.cur) and d = t.operand.v in
    f.cont <- k;
    charge t f d;
    (match t.obs_hooks with
    | Some h -> h.on_consume ~fid:f.fid ~label:f.label ~amount:d ~now:t.clock.v
    | None -> ());
    schedule t (t.clock.v +. d) t.cur ~resume:true;
    t.cur <- -1;
    next t
  in
  let sleep_k (k : (unit, unit) Effect.Deep.continuation) =
    let f = t.fibers.(t.cur) in
    f.cont <- k;
    f.state <- Sleeping;
    release_core t;
    schedule t (t.clock.v +. t.operand.v) t.cur ~resume:false;
    t.cur <- -1;
    next t
  in
  let yield_k (k : (unit, unit) Effect.Deep.continuation) =
    let f = t.fibers.(t.cur) in
    f.cont <- k;
    release_core t;
    enqueue_runnable t f;
    t.cur <- -1;
    next t
  in
  let park_k (k : (unit, unit) Effect.Deep.continuation) =
    let f = t.fibers.(t.cur) in
    f.cont <- k;
    f.state <- Parked;
    release_core t;
    t.cur <- -1;
    next t
  in
  let consume_o = Some consume_k
  and sleep_o = Some sleep_k
  and yield_o = Some yield_k
  and park_o = Some park_k in
  {
    Effect.Deep.retc =
      (fun () ->
        finish_fiber t t.fibers.(t.cur);
        t.cur <- -1;
        next t);
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

let create ?(quantum = 100.0) ?(sanitize = false) ~cores () =
  if cores <= 0 then invalid_arg "Engine.create: cores must be positive";
  let t =
    {
      n_cores = cores;
      quantum;
      clock = { v = 0.0 };
      operand = { v = 0.0 };
      free_cores = cores;
      fibers = Array.make min_slots dummy_fiber;
      hold = Array.make min_slots 0.0;
      free_slots = Array.make min_slots 0;
      n_free = 0;
      slots_hi = 0;
      rq = Array.make 8 0;
      rq_head = 0;
      rq_len = 0;
      ev_time = Array.make 64 0.0;
      ev_key = Array.make 64 0;
      ev_slot = Array.make 64 0;
      heap_len = 0;
      next_seq = 0;
      next_fid = 0;
      live = 0;
      cur = -1;
      run_limit = infinity;
      handler = { Effect.Deep.retc = ignore; exnc = raise; effc = (fun _ -> None) };
      busy_tbl = Hashtbl.create 16;
      busy_sorted = [];
      acct_epoch = 0;
      window_start = 0.0;
      switches = 0;
      race = (if sanitize then Some (Race.create ()) else None);
      access_hook = None;
      obs_hooks = None;
      metrics = Metrics.create ();
    }
  in
  t.handler <- make_handler t;
  t

let spawn t ?(label = "other") ?(daemon = false) ?at body =
  let f =
    {
      fid = t.next_fid;
      daemon;
      label;
      state = Created;
      slot = -1;
      cont = no_cont;
      body;
      join_waiters = [];
      cell = dummy_cell;
      cell_label = "";
      cell_epoch = -1;
    }
  in
  t.next_fid <- t.next_fid + 1;
  if not daemon then t.live <- t.live + 1;
  alloc_slot t f;
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
      schedule t time f.slot ~resume:false);
  f

let run ?until t =
  let dc = dctx () in
  let saved = dc.running in
  dc.running <- Some t;
  t.run_limit <- (match until with Some l -> l | None -> infinity);
  Fun.protect
    ~finally:(fun () -> dc.running <- saved)
    (fun () ->
      next t;
      (* If we stopped because of [until] there may still be runnable fibers;
         leave them queued for the next call. *)
      (match until with
      | Some limit when t.clock.v < limit && t.heap_len = 0 && t.rq_len = 0 -> t.clock.v <- limit
      | _ -> ());
      (* The host context now observes everything that ran (cooperative,
         single-threaded), so its clock must dominate all of it. *)
      match t.race with Some r -> Race.absorb_all r | None -> ())

(* Newest first: fids grow with spawn order. *)
let stalled_fibers t =
  if t.heap_len > 0 || t.rq_len > 0 then []
  else begin
    let acc = ref [] in
    for s = 0 to t.slots_hi - 1 do
      let f = t.fibers.(s) in
      if f != dummy_fiber && f.state = Parked && not f.daemon then acc := f :: !acc
    done;
    List.map (fun f -> (f.fid, f.label)) (List.sort (fun a b -> compare b.fid a.fid) !acc)
  end

let live_fibers t = t.live
let pending_work t = t.heap_len > 0 || t.rq_len > 0

(* --- fiber-context operations --- *)

(* Fast path: when the running fiber's resume event would be the very
   next thing the event loop processes — no fiber is runnable and
   clock+d strictly precedes every queued event (our event would carry
   the largest seq, so a time tie goes to the queued event) — performing
   the effect, scheduling, popping and resuming is observable only as
   "charge d and advance the clock".  Doing exactly that inline skips
   two stack switches and the heap round-trip.  The [run_limit] guard
   keeps warmup/measure windows exact: an event past [until] must stay
   queued with the clock pinned at the limit, so that case suspends.
   The operand is already in [t.operand], so no float crosses a call. *)
let[@inline never] consume_operand t =
  let d = t.operand.v in
  if
    t.cur >= 0
    && t.rq_len = 0
    && (t.heap_len = 0 || t.clock.v +. d < t.ev_time.(0))
    && t.clock.v +. d <= t.run_limit
  then begin
    let f = t.fibers.(t.cur) in
    charge t f d;
    (match t.obs_hooks with
    | Some h -> h.on_consume ~fid:f.fid ~label:f.label ~amount:d ~now:t.clock.v
    | None -> ());
    t.next_seq <- t.next_seq + 1;
    t.clock.v <- t.clock.v +. d
  end
  else Effect.perform Consume_e

(* Small enough to inline at every call site, so a computed duration is
   stored straight into the flat operand cell instead of being boxed. *)
let consume d =
  if d > 0.0 then
    match (dctx ()).running with
    | Some t ->
        t.operand.v <- d;
        consume_operand t
    | None -> Effect.perform Consume_e

let sleep d =
  if d > 0.0 then begin
    (match (dctx ()).running with Some t -> t.operand.v <- d | None -> ());
    Effect.perform Sleep_e
  end
  else Effect.perform Yield

let yield () = Effect.perform Yield

let self t = if t.cur < 0 then invalid_arg "Engine.self: no fiber is running" else t.fibers.(t.cur)
let set_label t label = (self t).label <- label
let relabel f label = f.label <- label
let fiber_id f = f.fid

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
  if f.state <> Done then begin
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

let window t = t.clock.v -. t.window_start

let cores_used t label =
  let w = window t in
  if w <= 0.0 then 0.0 else busy t label /. w

let utilization t =
  let w = window t in
  if w <= 0.0 then 0.0
  else
    (* Sum in label order ([busy_sorted] is kept sorted): float addition
       is not associative, so a hash-order sum would depend on table
       internals. *)
    let total = List.fold_left (fun acc (_, c) -> acc +. c.v) 0.0 t.busy_sorted in
    total /. (w *. float_of_int t.n_cores)

let context_switches t = t.switches
