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
end

module Channel = struct
  type 'a t = {
    eng : Engine.t;
    items : 'a option Fifo.t; (* each [Some v] as sent; cleared slots hold [None] *)
    receivers : Engine.fiber Fifo.t;
    race_sync : int option; (* release/acquire clock when sanitizing *)
  }

  let create eng =
    {
      eng;
      items = Fifo.create ~dummy:None;
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

  let send t v =
    Fifo.push t.items (Some v);
    race_release t;
    ignore (wake_first t.eng t.receivers)

  let rec recv t =
    if Fifo.is_empty t.items then begin
      Fifo.push t.receivers (Engine.self t.eng);
      Engine.park t.eng;
      recv t
    end
    else begin
      let item = Fifo.pop t.items in
      race_acquire t;
      Option.get item
    end

  let length t = Fifo.length t.items
end
