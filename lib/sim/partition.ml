(* Conservative-lookahead partitioned DES.  See the interface for the
   protocol; the invariants that make it deterministic:

   - a message posted during window [W, W+L) has deliver time
     >= sender clock + L >= W + L, i.e. strictly after the current
     window, so the window's execution never depends on concurrent
     sends (conservative lookahead);
   - outboxes are per-source (only the sending partition's window run
     appends; the coordinator reads them after the barrier), so there
     is no cross-domain mutation;
   - pending deliveries are injected before the window containing them,
     sorted by (deliver, src, seq), so Engine.spawn's FIFO tie-break
     sees one well-defined order regardless of which domain ran what
     when. *)

type msg = { deliver : float; src : int; seq : int; dst : int; fn : unit -> unit }

type part = {
  eng : Engine.t;
  mutable out_rev : msg list; (* sends this window, newest first *)
  mutable out_seq : int; (* per-source send counter *)
  mutable inbox : msg list; (* undelivered, sorted by msg_order *)
}

type t = {
  parts : part array;
  lookahead : float;
  mutable horizon : float; (* every partition's clock has reached this *)
}

let create ~parts ~cores_per_part ~lookahead () =
  if parts <= 0 then invalid_arg "Partition.create: parts must be positive";
  if not (lookahead > 0.0) then invalid_arg "Partition.create: lookahead must be positive";
  {
    parts =
      Array.init parts (fun _ ->
          {
            eng = Engine.create ~cores:cores_per_part ();
            out_rev = [];
            out_seq = 0;
            inbox = [];
          });
    lookahead;
    horizon = 0.0;
  }

let engine t pid = t.parts.(pid).eng
let now t = t.horizon

let post t ~src ~dst ~delay fn =
  if delay < t.lookahead then
    invalid_arg "Partition.post: delay below the conservative lookahead";
  if dst < 0 || dst >= Array.length t.parts then invalid_arg "Partition.post: dst out of range";
  let p = t.parts.(src) in
  let seq = p.out_seq in
  p.out_seq <- p.out_seq + 1;
  p.out_rev <- { deliver = Engine.now p.eng +. delay; src; seq; dst; fn } :: p.out_rev

let msg_order a b =
  match Float.compare a.deliver b.deliver with
  | 0 -> ( match Int.compare a.src b.src with 0 -> Int.compare a.seq b.seq | c -> c)
  | c -> c

(* Spawn every pending delivery that lands inside [horizon, stop) into
   its engine, in sorted order.  The inbox is sorted, so this peels a
   prefix. *)
let inject p ~stop =
  let rec go = function
    | m :: rest when m.deliver < stop ->
        ignore (Engine.spawn p.eng ~label:"xpart" ~at:m.deliver m.fn);
        go rest
    | rest -> p.inbox <- rest
  in
  go p.inbox

(* Undrained outboxes count as work: a message posted host-side between
   [run] calls (seeding) has not crossed a window barrier yet, and a
   drained run must still deliver it rather than jump the horizon. *)
let has_work t =
  Array.exists
    (fun p -> Engine.pending_work p.eng || p.inbox <> [] || p.out_rev <> [])
    t.parts

let run ?(domains = 1) ~until t =
  if until < t.horizon then invalid_arg "Partition.run: until is behind the horizon";
  let team = Wafl_util.Pool.team ~domains in
  Fun.protect ~finally:(fun () -> Wafl_util.Pool.team_stop team) @@ fun () ->
  while t.horizon < until && has_work t do
    let stop = Float.min until (t.horizon +. t.lookahead) in
    Array.iter (fun p -> inject p ~stop) t.parts;
    Wafl_util.Pool.team_run team
      (Array.to_list (Array.map (fun p () -> Engine.run ~until:stop p.eng) t.parts));
    (* Deterministic merge: collect outboxes in partition order (send
       order within each), then keep every destination inbox sorted by
       (deliver, src, seq). *)
    let touched = ref [] in
    Array.iter
      (fun p ->
        List.iter
          (fun m ->
            let d = t.parts.(m.dst) in
            if not (List.mem m.dst !touched) then touched := m.dst :: !touched;
            d.inbox <- m :: d.inbox)
          (List.rev p.out_rev);
        p.out_rev <- [])
      t.parts;
    List.iter
      (fun dst ->
        let d = t.parts.(dst) in
        d.inbox <- List.sort msg_order d.inbox)
      !touched;
    t.horizon <- stop
  done;
  (* Drained early: nothing queued anywhere and no pending deliveries,
     so no event can ever materialize — jump every clock to [until]. *)
  if t.horizon < until then begin
    Array.iter (fun p -> Engine.run ~until p.eng) t.parts;
    t.horizon <- until
  end
