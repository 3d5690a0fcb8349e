type mode = Read | Write

type report = {
  shared : string;
  first_mode : mode;
  first_label : string;
  first_fid : int;
  first_time : float;
  second_mode : mode;
  second_label : string;
  second_fid : int;
  second_time : float;
}

(* Growable vector clock indexed by fiber slot.  [len] is the logical
   length (highest slot ever set, plus one); [a] may be longer.  Joins
   iterate and propagate [len], never raw capacity — using capacity as
   the length would let the doubling in [ensure] ratchet capacities up
   exponentially across the join graph. *)
type vc = { mutable a : int array; mutable len : int }

let vc_create () = { a = Array.make 8 0; len = 0 }

let ensure v n =
  if Array.length v.a < n then begin
    let bigger = Array.make (max n (2 * Array.length v.a)) 0 in
    Array.blit v.a 0 bigger 0 (Array.length v.a);
    v.a <- bigger
  end

let get v i = if i < v.len then v.a.(i) else 0

let set v i x =
  ensure v (i + 1);
  v.a.(i) <- x;
  if i + 1 > v.len then v.len <- i + 1

let join dst src =
  ensure dst src.len;
  for i = 0 to src.len - 1 do
    if src.a.(i) > dst.a.(i) then dst.a.(i) <- src.a.(i)
  done;
  if src.len > dst.len then dst.len <- src.len

let copy src = { a = Array.copy src.a; len = src.len }

type fib = { slot : int; vc : vc }

(* Epoch records: one last-write plus one last-read per slot.  Clocks are
   monotonic within a slot (recycling continues the scalar clock), so an
   access ordered after a slot's latest epoch is ordered after all its
   earlier ones — keeping only the latest per slot loses no reports. *)
type reader = { r_slot : int; r_clock : int; r_label : string; r_time : float; r_fid : int }

type var = {
  mutable w_slot : int; (* -1 until first write *)
  mutable w_clock : int;
  mutable w_label : string;
  mutable w_time : float;
  mutable w_fid : int;
  mutable readers : reader list;
}

type t = {
  fibers : (int, fib) Hashtbl.t; (* live fibers by fid, including main; lookups only *)
  mutable by_slot : fib option array;
      (* the same live fibers by slot (live fibers hold distinct slots):
         the enumeration order, fixed by construction *)
  finished : (int, vc) Hashtbl.t; (* final clocks, for join-after-finish *)
  finished_order : int Wafl_util.Fifo.t; (* finish order, oldest first, for pruning *)
  ancient : vc; (* join of all pruned finished clocks *)
  slot_clock : vc; (* per-slot scalar-clock floor, monotonic across recycling *)
  mutable free_slots : int list;
  mutable n_slots : int;
  mutable syncs : vc array; (* by sync id; ids are dense below [next_sync] *)
  sync_names : (string, int) Hashtbl.t;
  mutable next_sync : int;
  vars : (string, var) Hashtbl.t;
  mutable reports : report list; (* newest first *)
  mutable n_reports : int;
}

let report_cap = 200

(* A long run finishes millions of message fibers; keeping every final
   clock would dominate memory.  Joins on long-finished fibers are rare
   (the scheduler uses park/wake), so past this cap the oldest clocks
   are folded into [ancient] — a join of everything pruned.  An edge
   from a pruned fiber then conservatively acquires [ancient]: the
   joiner may inherit more history than it really has, which can only
   hide a race, never invent one (same trade as slot recycling). *)
let finished_cap = 4096
let main_fid = -1

let create () =
  let t =
    {
      fibers = Hashtbl.create 64;
      by_slot = Array.make 64 None;
      finished = Hashtbl.create 256;
      finished_order = Wafl_util.Fifo.create ~dummy:0;
      ancient = vc_create ();
      slot_clock = vc_create ();
      free_slots = [];
      n_slots = 1;
      syncs = Array.make 32 (vc_create ());
      sync_names = Hashtbl.create 32;
      next_sync = 0;
      vars = Hashtbl.create 256;
      reports = [];
      n_reports = 0;
    }
  in
  (* Slot 0 is the host context and is never recycled. *)
  let v = vc_create () in
  set v 0 1;
  set t.slot_clock 0 1;
  let main = { slot = 0; vc = v } in
  Hashtbl.replace t.fibers main_fid main;
  t.by_slot.(0) <- Some main;
  t

let fib t fid =
  match Hashtbl.find_opt t.fibers fid with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Race: unknown or finished fiber %d" fid)

let inc t f =
  let c = get f.vc f.slot + 1 in
  set f.vc f.slot c;
  set t.slot_clock f.slot c

let alloc_slot t =
  match t.free_slots with
  | s :: rest ->
      t.free_slots <- rest;
      s
  | [] ->
      let s = t.n_slots in
      t.n_slots <- s + 1;
      s

let add_fiber t ~parent ~fid =
  let p = fib t parent in
  let slot = alloc_slot t in
  let v = copy p.vc in
  let c = get t.slot_clock slot + 1 in
  set v slot c;
  set t.slot_clock slot c;
  let f = { slot; vc = v } in
  Hashtbl.replace t.fibers fid f;
  if slot >= Array.length t.by_slot then begin
    let bigger = Array.make (2 * Array.length t.by_slot) None in
    Array.blit t.by_slot 0 bigger 0 (Array.length t.by_slot);
    t.by_slot <- bigger
  end;
  t.by_slot.(slot) <- Some f;
  inc t p

let finish_fiber t ~fid =
  let f = fib t fid in
  Hashtbl.replace t.finished fid f.vc;
  Wafl_util.Fifo.push t.finished_order fid;
  Hashtbl.remove t.fibers fid;
  t.by_slot.(f.slot) <- None;
  t.free_slots <- f.slot :: t.free_slots;
  while Hashtbl.length t.finished > finished_cap do
    let old = Wafl_util.Fifo.pop t.finished_order in
    match Hashtbl.find_opt t.finished old with
    | Some v ->
        join t.ancient v;
        Hashtbl.remove t.finished old
    | None -> ()
  done

let edge t ~from_ ~to_ =
  let dst = fib t to_ in
  match Hashtbl.find_opt t.fibers from_ with
  | Some src ->
      join dst.vc src.vc;
      inc t src
  | None -> (
      match Hashtbl.find_opt t.finished from_ with
      | Some v -> join dst.vc v
      | None ->
          (* Pruned (or never-registered) finished fiber: acquire the
             conservative join of everything pruned. *)
          join dst.vc t.ancient)

let new_sync t =
  let id = t.next_sync in
  t.next_sync <- id + 1;
  if id >= Array.length t.syncs then begin
    let bigger = Array.make (2 * Array.length t.syncs) (vc_create ()) in
    Array.blit t.syncs 0 bigger 0 id;
    t.syncs <- bigger
  end;
  t.syncs.(id) <- vc_create ();
  id

let sync_id t name =
  match Hashtbl.find_opt t.sync_names name with
  | Some id -> id
  | None ->
      let id = new_sync t in
      Hashtbl.replace t.sync_names name id;
      id

let sync_vc t sync =
  if sync < 0 || sync >= t.next_sync then
    invalid_arg (Printf.sprintf "Race: unknown sync object %d" sync);
  t.syncs.(sync)

let acquire t ~fid ~sync = join (fib t fid).vc (sync_vc t sync)

let release t ~fid ~sync =
  let f = fib t fid in
  join (sync_vc t sync) f.vc;
  inc t f

let access t ~fid ~label ~now ~shared mode =
  let f = fib t fid in
  let v =
    match Hashtbl.find_opt t.vars shared with
    | Some v -> v
    | None ->
        let v =
          { w_slot = -1; w_clock = 0; w_label = ""; w_time = 0.0; w_fid = 0; readers = [] }
        in
        Hashtbl.replace t.vars shared v;
        v
  in
  let report first_mode first_label first_fid first_time =
    if t.n_reports < report_cap then
      t.reports <-
        {
          shared;
          first_mode;
          first_label;
          first_fid;
          first_time;
          second_mode = mode;
          second_label = label;
          second_fid = fid;
          second_time = now;
        }
        :: t.reports;
    t.n_reports <- t.n_reports + 1
  in
  let write_ordered = v.w_slot < 0 || get f.vc v.w_slot >= v.w_clock in
  (match mode with
  | Read -> if not write_ordered then report Write v.w_label v.w_fid v.w_time
  | Write ->
      if not write_ordered then report Write v.w_label v.w_fid v.w_time;
      List.iter
        (fun r ->
          if not (get f.vc r.r_slot >= r.r_clock) then report Read r.r_label r.r_fid r.r_time)
        v.readers);
  match mode with
  | Read ->
      let entry =
        { r_slot = f.slot; r_clock = get f.vc f.slot; r_label = label; r_time = now; r_fid = fid }
      in
      v.readers <- entry :: List.filter (fun r -> r.r_slot <> f.slot) v.readers
  | Write ->
      v.readers <- [];
      v.w_slot <- f.slot;
      v.w_clock <- get f.vc f.slot;
      v.w_label <- label;
      v.w_time <- now;
      v.w_fid <- fid

let reports t = List.rev t.reports
let n_reports t = t.n_reports

let absorb_all t =
  let m = fib t main_fid in
  Array.iter (Option.iter (fun f -> if f != m then join m.vc f.vc)) t.by_slot;
  for id = 0 to t.next_sync - 1 do
    join m.vc t.syncs.(id)
  done
