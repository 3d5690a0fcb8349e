open Wafl_sim

(* Page-mapped flash translation layer for one RAID group (DESIGN.md
   §4.13).  The FTL is a timing/wear/accounting model: payload content
   stays in the Disk block store, while this layer tracks which physical
   flash page each logical page (one per VBN of the group) lives in,
   runs a background garbage-collection fiber over erase blocks, and
   charges program/read/erase time plus GC-induced host stalls in
   virtual time.  Everything is seeded-deterministic: victim tie-breaks
   come from a {!Wafl_util.Rng} derived from the config seed, all scans
   are index-ordered, and all waits are FIFO. *)

type config = {
  pages_per_block : int;  (* erase-block size in (4 KiB) pages *)
  logical_capacity : float;  (* advertised capacity, fraction of the lpn space *)
  op_ratio : float;  (* over-provisioned spare capacity, fraction of logical *)
  streams : int;  (* host write streams; the FTL adds an internal GC stream *)
  prefill : float;  (* fraction of logical pages mapped at create (device aging) *)
  seed : int;
}

let default_config =
  {
    pages_per_block = 64;
    logical_capacity = 1.0;
    op_ratio = 0.10;
    streams = 2;
    prefill = 0.0;
    seed = 1;
  }

(* NAND timing, virtual µs. *)
let page_program_us = 8.0
let page_read_us = 4.0
let block_erase_us = 400.0

(* GC wakes when free blocks fall below [gc_low] of the spare pool and
   parks again once they reach [gc_high]. *)
let gc_low = 0.50
let gc_high = 0.75

(* Free blocks only GC may take: the relocation stream must always be
   able to open a block, or a full device deadlocks against its own
   cleaner. *)
let gc_reserve = 2

type t = {
  eng : Engine.t;
  cfg : config;
  rg : int;
  shared : string;  (* sanitizer family for every state touch *)
  obs : Wafl_obs.Trace.t;
  obs_on : bool;
  lpns : int;
  lblocks : int;  (* advertised (logical) capacity in erase blocks *)
  nblocks : int;
  l2p : int array;  (* lpn -> ppn, -1 unmapped *)
  p2l : int array;  (* ppn -> lpn while valid, -1 otherwise *)
  valid : int array;  (* per block: count of valid pages *)
  wear : int array;  (* per block: erase count *)
  closed : bool array;  (* per block: fully programmed, GC candidate *)
  free_q : int Wafl_util.Fifo.t;  (* erased blocks, FIFO for natural wear rotation *)
  mutable free_count : int;
  streams_tbl : Stream.t array;  (* cfg.streams host streams + 1 GC stream *)
  rng : Wafl_util.Rng.t;
  host_q : Sync.Waitq.t;  (* host writers stalled on free space *)
  gc_q : Sync.Waitq.t;  (* the GC fiber parks here above the high mark *)
  mutable host_pages : int;
  mutable gc_pages : int;
  mutable erases : int;
  mutable gc_runs : int;
  mutable gc_stall_us : float;
  mutable erase_until : float;  (* host programs blocked while an erase runs *)
  mutable trims : int;
}

let probe t = Engine.probe_atomic t.eng ~shared:t.shared
let spare t = t.nblocks - t.lblocks
let low_blocks t = max (gc_reserve + 1) (int_of_float (gc_low *. float_of_int (spare t)))

let high_blocks t =
  max (low_blocks t + 1) (int_of_float (gc_high *. float_of_int (spare t)))

let gc_stream t = t.streams_tbl.(t.cfg.streams)

(* --- block lifecycle ----------------------------------------------------- *)

let take_free t ~for_gc =
  let floor = if for_gc then 0 else gc_reserve in
  if t.free_count <= floor then None
  else begin
    let b = Wafl_util.Fifo.pop t.free_q in
    t.free_count <- t.free_count - 1;
    Some b
  end

let close_block t (s : Stream.t) =
  if Stream.has_block s then begin
    let b = Stream.block s in
    t.closed.(b) <- true;
    Stream.close s
  end

(* Append one page through [s]; [None] when no free block is available to
   open (host streams keep their hands off the GC reserve).  The open
   blocks and the free pool are shared between every RAID service fiber
   and the GC fiber; the real device serializes them behind its internal
   allocation lock. *)
let try_append t (s : Stream.t) ~for_gc =
  probe t;
  if Stream.full s ~pages_per_block:t.cfg.pages_per_block then close_block t s;
  (if not (Stream.has_block s) then
     match take_free t ~for_gc with
     | Some b -> Stream.open_block s ~block:b
     | None -> ());
  if not (Stream.has_block s) then None
  else begin
    let off = Stream.append s in
    Some ((Stream.block s * t.cfg.pages_per_block) + off)
  end

let invalidate t lpn =
  let old = t.l2p.(lpn) in
  if old >= 0 then begin
    t.p2l.(old) <- -1;
    let b = old / t.cfg.pages_per_block in
    t.valid.(b) <- t.valid.(b) - 1
  end

let map t lpn ppn =
  invalidate t lpn;
  t.l2p.(lpn) <- ppn;
  t.p2l.(ppn) <- lpn;
  let b = ppn / t.cfg.pages_per_block in
  t.valid.(b) <- t.valid.(b) + 1

(* --- victim selection ---------------------------------------------------- *)

(* Greedy: the closed block with the fewest valid pages.  The scan is
   index-ordered and ties are broken by the seeded RNG (same seed, same
   history -> same victim). *)
let pick_victim t =
  let best = ref max_int and ties = ref [] in
  for b = 0 to t.nblocks - 1 do
    let v = t.valid.(b) in
    if t.closed.(b) && v < t.cfg.pages_per_block then
      if v < !best then begin
        best := v;
        ties := [ b ]
      end
      else if v = !best then ties := b :: !ties
  done;
  match !ties with
  | [] -> None
  | l ->
      let arr = Array.of_list (List.rev l) in
      Some arr.(Wafl_util.Rng.int t.rng (Array.length arr))

(* Relocate the victim's still-valid pages through the GC stream, then
   erase it.  Bookkeeping happens up front (so host writes racing the
   GC sleep invalidate the *new* locations); the virtual-time charge
   covers the page reads, page programs and the erase. *)
let gc_cycle t victim =
  let ppb = t.cfg.pages_per_block in
  let moved = ref 0 in
  t.closed.(victim) <- false;
  for off = 0 to ppb - 1 do
    let ppn = (victim * ppb) + off in
    let lpn = t.p2l.(ppn) in
    if lpn >= 0 then begin
      (* The reserve guarantees the GC stream can always open a block. *)
      match try_append t (gc_stream t) ~for_gc:true with
      | Some dst ->
          map t lpn dst;
          incr moved
      | None -> assert false
    end
  done;
  t.gc_pages <- t.gc_pages + !moved;
  let t0 = Engine.now t.eng in
  Engine.sleep (float_of_int !moved *. (page_read_us +. page_program_us));
  (* The erase occupies the die: host programs arriving inside this
     window queue behind it (the erase-suspend-free NAND contract) —
     that queueing is the GC push-back the experiments measure. *)
  t.erase_until <- Engine.now t.eng +. block_erase_us;
  Engine.sleep block_erase_us;
  let dur = Engine.now t.eng -. t0 in
  (* Erase: the block (fully invalid by now) returns to the free pool. *)
  t.valid.(victim) <- 0;
  t.wear.(victim) <- t.wear.(victim) + 1;
  t.erases <- t.erases + 1;
  Wafl_util.Fifo.push t.free_q victim;
  t.free_count <- t.free_count + 1;
  if t.obs_on then
    Wafl_obs.Trace.complete t.obs ~cat:"flash" ~name:"flash gc" ~ts:t0 ~dur
      ~num_args:
        [
          ("rg", float_of_int t.rg);
          ("block", float_of_int victim);
          ("moved", float_of_int !moved);
          ("free_blocks", float_of_int t.free_count);
        ]
      ();
  ignore (Sync.Waitq.wake_all t.host_q)

let gc_fiber t () : unit =
  let rec loop () =
    probe t;
    if t.free_count >= high_blocks t then Sync.Waitq.wait t.gc_q
    else begin
      t.gc_runs <- t.gc_runs + 1;
      (match pick_victim t with
      | Some victim -> gc_cycle t victim
      | None ->
          (* Nothing reclaimable (every closed block fully valid): park
             until a host write or trim changes the picture. *)
          Sync.Waitq.wait t.gc_q)
    end;
    loop ()
  in
  loop ()

let kick_gc t = if t.free_count < low_blocks t then ignore (Sync.Waitq.wake_all t.gc_q)

(* --- host interface ------------------------------------------------------- *)

(* Program [pairs] of (lpn, stream), in order, from the calling service
   fiber.  Stalls (FIFO) whenever no free block is available outside the
   GC reserve — that wait is the GC-induced host delay the experiments
   measure — then charges one program time per page. *)
let host_write t pairs =
  probe t;
  let n = ref 0 in
  List.iter
    (fun (lpn, stream) ->
      let s = t.streams_tbl.(max 0 (min stream (t.cfg.streams - 1))) in
      let rec put () =
        match try_append t s ~for_gc:false with
        | Some ppn ->
            map t lpn ppn;
            incr n
        | None ->
            ignore (Sync.Waitq.wake_all t.gc_q);
            let w0 = Engine.now t.eng in
            Sync.Waitq.wait t.host_q;
            let w = Engine.now t.eng -. w0 in
            t.gc_stall_us <- t.gc_stall_us +. w;
            if t.obs_on && w > 0.0 then
              Wafl_obs.Trace.complete t.obs ~cat:"flash" ~name:"flash stall" ~ts:w0 ~dur:w
                ~num_args:[ ("rg", float_of_int t.rg) ]
                ();
            put ()
      in
      put ())
    pairs;
  t.host_pages <- t.host_pages + !n;
  (* Programs queue behind an in-flight GC erase (the die is busy): this
     is the steady-state flavor of GC push-back, felt long before the
     free pool is exhausted. *)
  (if !n > 0 then
     let now = Engine.now t.eng in
     if now < t.erase_until then begin
       let w = t.erase_until -. now in
       t.gc_stall_us <- t.gc_stall_us +. w;
       if t.obs_on then
         Wafl_obs.Trace.complete t.obs ~cat:"flash" ~name:"flash stall" ~ts:now ~dur:w
           ~num_args:[ ("rg", float_of_int t.rg) ]
           ();
       Engine.sleep w
     end);
  let t0 = Engine.now t.eng in
  let dur = float_of_int !n *. page_program_us in
  Engine.sleep dur;
  if t.obs_on && !n > 0 then
    Wafl_obs.Trace.complete t.obs ~cat:"flash" ~name:"flash program" ~ts:t0 ~dur
      ~num_args:[ ("rg", float_of_int t.rg); ("pages", float_of_int !n) ]
      ();
  kick_gc t

(* The file system freed this logical page (WAFL never overwrites in
   place, so frees are the FTL's only source of invalidation besides
   remaps): its flash page is dead and need not be relocated.  Pure
   bookkeeping — callable outside fiber context. *)
let trim t ~lpn =
  probe t;
  if t.l2p.(lpn) >= 0 then begin
    invalidate t lpn;
    t.l2p.(lpn) <- -1;
    t.trims <- t.trims + 1
  end

(* Map pages with no virtual-time charge: recovery rebuilding the
   pre-crash device fill, and the create-time prefill.  Outside fiber
   context by design. *)
let preload t lpns_list =
  probe t;
  List.iter
    (fun lpn ->
      match try_append t t.streams_tbl.(0) ~for_gc:false with
      | Some ppn -> map t lpn ppn
      | None -> invalid_arg "Ftl.preload: device full")
    lpns_list

let create ?(obs = Wafl_obs.Trace.disabled) eng ~cfg ~lpns ~rg =
  if lpns <= 0 then invalid_arg "Ftl.create: lpns must be positive";
  if cfg.pages_per_block <= 0 then invalid_arg "Ftl.create: pages_per_block must be positive";
  if cfg.streams < 1 then invalid_arg "Ftl.create: at least one host stream";
  if cfg.logical_capacity <= 0.0 then invalid_arg "Ftl.create: logical_capacity must be positive";
  let ppb = cfg.pages_per_block in
  (* Thin provisioning: the device advertises [logical_capacity] of the
     lpn address space.  Valid data beyond the advertised capacity is
     the operator's overcommit — the device just runs out of free
     blocks and stalls the host, as real hardware would. *)
  let logical_pages =
    max 1 (int_of_float (ceil (cfg.logical_capacity *. float_of_int lpns)))
  in
  let logical_blocks = (logical_pages + ppb - 1) / ppb in
  let nblocks =
    max
      (logical_blocks + cfg.streams + 1 + gc_reserve + 2)
      (int_of_float (ceil (float_of_int logical_blocks *. (1.0 +. cfg.op_ratio))))
  in
  let m = Engine.metrics eng in
  let t =
    {
      eng;
      cfg;
      rg;
      shared = Printf.sprintf "flash.rg%d" rg;
      obs;
      obs_on = Wafl_obs.Trace.enabled obs;
      lpns;
      lblocks = logical_blocks;
      nblocks;
      l2p = Array.make lpns (-1);
      p2l = Array.make (nblocks * ppb) (-1);
      valid = Array.make nblocks 0;
      wear = Array.make nblocks 0;
      closed = Array.make nblocks false;
      free_q = Wafl_util.Fifo.create ~dummy:(-1);
      free_count = nblocks;
      streams_tbl = Array.init (cfg.streams + 1) Stream.make;
      rng = Wafl_util.Rng.create ~seed:(cfg.seed + (rg * 7919));
      host_q = Sync.Waitq.create eng;
      gc_q = Sync.Waitq.create eng;
      host_pages = 0;
      gc_pages = 0;
      erases = 0;
      gc_runs = 0;
      gc_stall_us = 0.0;
      erase_until = 0.0;
      trims = 0;
    }
  in
  let pull name f = Metrics.pull_counter m name (fun () -> float_of_int (f ())) in
  pull "flash.host_pages" (fun () -> t.host_pages);
  pull "flash.gc_pages" (fun () -> t.gc_pages);
  pull "flash.erases" (fun () -> t.erases);
  pull "flash.gc_runs" (fun () -> t.gc_runs);
  Metrics.pull_counter m "flash.gc_stall_us" (fun () -> t.gc_stall_us);
  for b = 0 to nblocks - 1 do
    Wafl_util.Fifo.push t.free_q b
  done;
  (* Device aging: map the first [prefill] fraction of the logical space
     as data, then season to steady state — random overwrites within the
     aged span until the free pool sits at the GC-idle threshold, as on
     a drive that has been written continuously for a long time.  The
     churn scatters invalid pages across every block, so the background
     GC is live (and the measured WAF meaningful) from the first host
     write instead of after megabytes of free-pool drain. *)
  let aged = min lpns (int_of_float (cfg.prefill *. float_of_int lpns)) in
  if aged > 0 then begin
    preload t (List.init aged Fun.id);
    while t.free_count > high_blocks t do
      let lpn = Wafl_util.Rng.int t.rng aged in
      match try_append t t.streams_tbl.(0) ~for_gc:false with
      | Some ppn -> map t lpn ppn
      | None -> assert false (* free pool > high mark > GC reserve *)
    done
  end;
  (* Called, not tail-called, so the loop's frame is not the fiber's
     bottom frame, where a host-profiler sample finds no source location
     (DESIGN.md §4.9, Profiling). *)
  ignore (Engine.spawn eng ~label:"io" ~daemon:true (fun () -> gc_fiber t (); ()));
  t

(* --- introspection -------------------------------------------------------- *)

let lpn_count t = t.lpns
let block_count t = t.nblocks
let logical_pages t = t.lblocks * t.cfg.pages_per_block
let stream_appended t = Array.map Stream.appended t.streams_tbl
let gc_pages t = t.gc_pages
let erases t = t.erases
let trims t = t.trims
let free_blocks t = t.free_count

let valid_pages t = Array.fold_left ( + ) 0 t.valid

let max_wear t = Array.fold_left max 0 t.wear

let block_of_lpn t lpn =
  if t.l2p.(lpn) < 0 then -1 else t.l2p.(lpn) / t.cfg.pages_per_block

(* Deterministic digest of the full translation state plus the wear and
   WAF counters; the replay-identity tests compare two runs by it. *)
let signature t =
  let h = ref 1469598103934665603L in
  let mix v =
    h := Int64.mul (Int64.logxor !h (Int64.of_int (v + 1))) 1099511628211L
  in
  Array.iter mix t.l2p;
  Array.iter mix t.wear;
  mix t.host_pages;
  mix t.gc_pages;
  mix t.erases;
  mix (int_of_float t.gc_stall_us);
  Printf.sprintf "%Lx" !h
