module Fifo = Wafl_util.Fifo

(* Wake the oldest fiber parked on [q], if any. *)
let wake_first eng q =
  if Fifo.is_empty q then false
  else begin
    Engine.wake eng (Fifo.pop q);
    true
  end

module Waitq = struct
  type t = { eng : Engine.t; q : Engine.fiber Fifo.t }

  let create eng = { eng; q = Engine.fiber_fifo () }

  let wait t =
    Fifo.push t.q (Engine.self t.eng);
    Engine.park t.eng

  let wake_one t = wake_first t.eng t.q

  let wake_all t =
    let n = Fifo.length t.q in
    while wake_one t do
      ()
    done;
    n

  let waiters t = Fifo.length t.q
end

module Mutex = struct
  type t = {
    eng : Engine.t;
    mutex_name : string;
    acquire_cost : float;
    mutable owner : Engine.fiber option;
    waiters : Engine.fiber Fifo.t;
    mutable n_acquires : int;
    mutable n_contended : int;
    race_sync : int option; (* release/acquire clock when sanitizing *)
  }

  let create ?(name = "mutex") ?acquire_cost eng =
    let acquire_cost =
      match acquire_cost with Some c -> c | None -> Cost.default.lock_acquire
    in
    {
      eng;
      mutex_name = name;
      acquire_cost;
      owner = None;
      waiters = Engine.fiber_fifo ();
      n_acquires = 0;
      n_contended = 0;
      race_sync = (match Engine.race eng with Some r -> Some (Race.new_sync r) | None -> None);
    }

  let race_acquire t =
    match (Engine.race t.eng, t.race_sync) with
    | Some r, Some sync -> Race.acquire r ~fid:(Engine.current_fid t.eng) ~sync
    | _ -> ()

  let race_release t =
    match (Engine.race t.eng, t.race_sync) with
    | Some r, Some sync -> Race.release r ~fid:(Engine.current_fid t.eng) ~sync
    | _ -> ()

  let fiber_desc f = Printf.sprintf "%s#%d" (Engine.fiber_label f) (Engine.fiber_id f)
  let holder_desc t = match t.owner with Some f -> fiber_desc f | None -> "nobody"

  let lock t =
    let me = Engine.self t.eng in
    Engine.consume t.acquire_cost;
    t.n_acquires <- t.n_acquires + 1;
    (match t.owner with
    | None -> t.owner <- Some me
    | Some owner ->
        if Engine.fiber_id owner = Engine.fiber_id me then
          invalid_arg
            (Printf.sprintf "Mutex %s: recursive lock by %s" t.mutex_name (fiber_desc me));
        t.n_contended <- t.n_contended + 1;
        Fifo.push t.waiters me;
        Engine.park t.eng
        (* Ownership is transferred by [unlock]; when we resume we already
           hold the mutex. *));
    race_acquire t

  let unlock t =
    let me = Engine.self t.eng in
    (match t.owner with
    | Some owner when Engine.fiber_id owner = Engine.fiber_id me -> ()
    | _ ->
        invalid_arg
          (Printf.sprintf "Mutex %s: unlock by %s but held by %s" t.mutex_name (fiber_desc me)
             (holder_desc t)));
    race_release t;
    if Fifo.is_empty t.waiters then t.owner <- None
    else begin
      let next = Fifo.pop t.waiters in
      t.owner <- Some next;
      Engine.wake t.eng next
    end

  let with_lock t f =
    lock t;
    match f () with
    | v ->
        unlock t;
        v
    | exception exn ->
        unlock t;
        raise exn

  let name t = t.mutex_name
  let contended_acquires t = t.n_contended
  let acquires t = t.n_acquires
end

module Condition = struct
  type t = { eng : Engine.t; waiters : Engine.fiber Fifo.t }

  let create eng = { eng; waiters = Engine.fiber_fifo () }

  (* The simulation is cooperatively scheduled, so "enqueue self, unlock,
     park" cannot lose a wakeup: no other fiber runs between the unlock and
     the park effect. *)
  let wait t m =
    let me = Engine.self t.eng in
    (match m.Mutex.owner with
    | Some owner when Engine.fiber_id owner = Engine.fiber_id me -> ()
    | _ ->
        invalid_arg
          (Printf.sprintf "Condition.wait: mutex %s not held by %s but by %s"
             (Mutex.name m) (Mutex.fiber_desc me) (Mutex.holder_desc m)));
    Fifo.push t.waiters me;
    Mutex.unlock m;
    Engine.park t.eng;
    Mutex.lock m

  let signal t = ignore (wake_first t.eng t.waiters)

  let broadcast t =
    while wake_first t.eng t.waiters do
      ()
    done
end

module Channel = struct
  type 'a t = {
    eng : Engine.t;
    capacity : int option;
    items : 'a option Fifo.t; (* each [Some v] as sent; cleared slots hold [None] *)
    senders : Engine.fiber Fifo.t;
    receivers : Engine.fiber Fifo.t;
    race_sync : int option;
  }

  let create ?capacity eng =
    (match capacity with
    | Some c when c <= 0 -> invalid_arg "Channel.create: capacity must be positive"
    | _ -> ());
    {
      eng;
      capacity;
      items = Fifo.create ~dummy:None;
      senders = Engine.fiber_fifo ();
      receivers = Engine.fiber_fifo ();
      race_sync = (match Engine.race eng with Some r -> Some (Race.new_sync r) | None -> None);
    }

  (* A send is a release and a successful receive an acquire on the
     channel's clock: a receiver is ordered after every prior sender. *)
  let race_release t =
    match (Engine.race t.eng, t.race_sync) with
    | Some r, Some sync -> Race.release r ~fid:(Engine.current_fid t.eng) ~sync
    | _ -> ()

  let race_acquire t =
    match (Engine.race t.eng, t.race_sync) with
    | Some r, Some sync -> Race.acquire r ~fid:(Engine.current_fid t.eng) ~sync
    | _ -> ()

  let is_full t =
    match t.capacity with None -> false | Some c -> Fifo.length t.items >= c

  let send t v =
    while is_full t do
      Fifo.push t.senders (Engine.self t.eng);
      Engine.park t.eng
    done;
    Fifo.push t.items (Some v);
    race_release t;
    ignore (wake_first t.eng t.receivers)

  (* The oldest item, as sent; the caller has checked there is one. *)
  let take t =
    let item = Fifo.pop t.items in
    race_acquire t;
    ignore (wake_first t.eng t.senders);
    item

  let rec recv t =
    if Fifo.is_empty t.items then begin
      Fifo.push t.receivers (Engine.self t.eng);
      Engine.park t.eng;
      recv t
    end
    else Option.get (take t)

  let try_recv t = if Fifo.is_empty t.items then None else take t
  let length t = Fifo.length t.items
end
