open Wafl_sim
open Wafl_fs
module Geometry = Wafl_storage.Geometry
module Disk = Wafl_storage.Disk
module Raid = Wafl_storage.Raid
module Fault = Wafl_storage.Fault

type outcome = {
  seed : int;
  crash_time : float;
  mid_cp : bool;
  cp_phase : string;
  cps_before_crash : int;
  last_ack_us : float;
  acked : int;
  torn : int;
  lost : int;
  fsck_failure : string option;
  disk_failure_active : bool;
  media_errors : int;
  transient_retries : int;
  degraded_reads : int;
  rebuild_blocks : int;
  b2b_cps : int;  (* back-to-back CPs before the crash (overload mode) *)
  stall_us : float;  (* client time parked in watermark admission *)
  exhausted_writes : int;  (* must stay 0: watermarks hold admission back *)
  flash_gc_pages : int;  (* FTL GC relocations before the crash (flash mode) *)
  flash_erases : int;
  races : int;
}

(* Same shape as the integration tests: 2 groups x 3 data drives, small
   drives so a rebuild completes within a verification run. *)
let raid_groups = [ (3, 1); (3, 1) ]
let drive_blocks = 8192
let geometry () = Geometry.create ~drive_blocks ~aa_stripes:512 ~raid_groups ()

(* The expected state, keyed by (vol, file, fbn): its bindings come back
   in key order, so the verification walk needs no sort. *)
module Oracle = Map.Make (struct
  type t = int * int * int

  let compare = compare
end)

(* Replay the surviving (acknowledged, not torn) operation mirror into
   the expected state: (vol, file, fbn) -> content. *)
let expected_state surviving =
  let live = Hashtbl.create 16 in
  List.fold_left
    (fun expected -> function
      | Nvlog.Create_vol _ -> expected
      | Nvlog.Create_file { vol; file } ->
          Hashtbl.replace live (vol, file) ();
          expected
      | Nvlog.Write { vol; file; fbn; content } ->
          if Hashtbl.mem live (vol, file) then Oracle.add (vol, file, fbn) content expected
          else expected
      | Nvlog.Delete_file { vol; file } ->
          Hashtbl.remove live (vol, file);
          Oracle.filter (fun (v, f, _) _ -> v <> vol || f <> file) expected)
    Oracle.empty surviving

(* Overload mode: a small NVRAM with watermark admission, driven by a
   seeded bursty open-loop arrival plan, so crash points land inside
   throttled and back-to-back-CP windows rather than steady state. *)
let overload_watermarks = { Nvlog.soft = 0.5; hard = 0.9; pace = 25.0 }

let overload_process =
  Wafl_workload.Arrival.Bursty
    { base_rate = 20_000.0; burst_rate = 800_000.0; mean_on_us = 3_000.0; mean_off_us = 8_000.0 }

(* Flash mode: a nearly-full FTL so the background GC is active for most
   of the run and the crash routinely lands mid-GC-cycle.  The FTL's L2P
   table is volatile — recovery rebuilds the mapping from the recovered
   aggregate — so acked-write read-back must hold regardless of where in
   a GC relocation the crash hit. *)
let flash_config =
  {
    Wafl_flash.Ftl.default_config with
    Wafl_flash.Ftl.prefill = 0.85;
    op_ratio = 0.10;
    streams = 2;
  }

let run_one ?(ops = 100_000) ?(fbn_space = 700) ?(horizon = 60_000.0) ?(sanitize = false)
    ?(overload = false) ?(flash = false) ?chaos ~seed () =
  let geom = geometry () in
  let plan =
    Fault.random ~seed ~total_vbns:(Geometry.total_data_blocks geom) ~raid_groups ~horizon
  in
  let eng = Engine.create ~cores:8 ~sanitize () in
  let agg =
    Aggregate.create eng ~cost:Cost.default ~geometry:geom
      ~nvlog_half:(if overload then 512 else 2048)
      ?nvlog_watermarks:(if overload then Some overload_watermarks else None)
      ?flash:(if flash then Some flash_config else None)
      ?chaos ()
  in
  Disk.set_fault (Aggregate.disk agg) plan;
  let cfg = { Wafl_core.Walloc.default_config with cp_timer = Some 6_000.0 } in
  let walloc = Wafl_core.Walloc.create agg cfg in
  let r = Wafl_util.Rng.create ~seed:(seed lxor 0x2545f491) in
  (* Ordered mirror of every operation this harness acknowledged (newest
     first).  The harness is the only nvlog client, so the mirror's tail
     is exactly the nvlog's tail: the torn records at crash are the
     newest [torn] entries here. *)
  let oplog = ref [] in
  let last_ack_us = ref 0.0 in
  ignore
    (Engine.spawn eng ~label:"client" (fun () ->
         let vol = Aggregate.create_volume agg ~vvbn_space:65536 in
         let vid = Wafl_fs.Volume.id vol in
         oplog := Nvlog.Create_vol { vol = vid; vvbn_space = 65536 } :: !oplog;
         Wafl_core.Walloc.register_volume walloc vol;
         let files =
           Array.init 4 (fun _ ->
               let f = Aggregate.create_file agg ~vol:vid in
               oplog := Nvlog.Create_file { vol = vid; file = File.id f } :: !oplog;
               File.id f)
         in
         (* Overload mode paces ops by the bursty arrival plan (open
            loop); otherwise a fixed per-op CPU cost (closed loop). *)
         let arrival =
           if overload then
             Some
               (Wafl_workload.Arrival.start overload_process
                  ~rng:(Wafl_util.Rng.create ~seed:(seed lxor 0x51ca7a11)))
           else None
         in
         let i = ref 0 in
         while !i < ops && Engine.now eng < horizon do
           incr i;
           (match arrival with
           | Some a -> Engine.sleep (Wafl_workload.Arrival.next a ~now:(Engine.now eng))
           | None -> ());
           Aggregate.wait_for_log_space agg;
           let file = files.(Wafl_util.Rng.int r (Array.length files)) in
           let fbn = Wafl_util.Rng.int r fbn_space in
           let content = Int64.of_int ((!i * 131) + (seed * 7) + fbn) in
           (* The reply leaves the box when the write lands in the log; a
              shed write is never acknowledged and never enters the
              mirror. *)
           (match Aggregate.write agg ~vol:vid ~file ~fbn ~content with
           | (`Ok | `Log_half_full) as r ->
               if r = `Log_half_full then Wafl_core.Cp.request (Wafl_core.Walloc.cp walloc);
               oplog := Nvlog.Write { vol = vid; file; fbn; content } :: !oplog;
               last_ack_us := Engine.now eng
           | `Log_exhausted -> ());
           if not overload then Engine.consume 3.0
         done));
  let crash_time = Fault.crash_at plan in
  Engine.run ~until:crash_time eng;
  let cp = Wafl_core.Walloc.cp walloc in
  let mid_cp = Wafl_core.Cp.running cp in
  let cp_phase = Wafl_core.Cp.phase cp in
  let cps_before_crash = Wafl_core.Cp.cps_completed cp in
  let b2b_cps = Wafl_core.Cp.b2b_cps cp in
  let stall_us = Aggregate.stall_time agg in
  let exhausted_writes = Aggregate.exhausted_writes agg in
  let ftls = Aggregate.ftls agg in
  let flash_gc_pages = List.fold_left (fun a f -> a + Wafl_flash.Ftl.gc_pages f) 0 ftls in
  let flash_erases = List.fold_left (fun a f -> a + Wafl_flash.Ftl.erases f) 0 ftls in
  let disk_failure_active = Array.exists Raid.degraded (Aggregate.raid_groups agg) in
  (* The crash tears the scheduled NVRAM tail: those records' DMA was in
     flight, so their acknowledgements never left the box — retract them
     from the oracle. *)
  let torn_ops = Nvlog.tear (Aggregate.nvlog agg) ~records:(Fault.torn_tail plan) in
  let torn = List.length torn_ops in
  let rec drop k l = if k = 0 then l else match l with [] -> [] | _ :: tl -> drop (k - 1) tl in
  let surviving = List.rev (drop torn !oplog) in
  let expected = expected_state surviving in
  let pers = Aggregate.crash agg in
  let lost = ref 0 in
  let fsck_failure = ref None in
  let races = ref (Engine.race_report_count eng) in
  (match
     try `Ok (Aggregate.recover (Engine.create ~cores:8 ~sanitize ()) ~cost:Cost.default pers)
     with Aggregate.Corruption m -> `Corrupt m
   with
  | `Corrupt m ->
      fsck_failure := Some m;
      lost := Oracle.cardinal expected
  | `Ok agg2 ->
      let eng2 = Aggregate.engine agg2 in
      let walloc2 = Wafl_core.Walloc.create agg2 Wafl_core.Walloc.default_config in
      (* Oracle walk in key order: the reads consume virtual time, so
         the order must not depend on anything but the keys. *)
      ignore
        (Engine.spawn eng2 ~label:"verify" (fun () ->
             (* A post-recovery CP flushes the replayed state through the
                still-degraded substrate, exercising the repair path. *)
             Wafl_core.Cp.run_now (Wafl_core.Walloc.cp walloc2);
             List.iter
               (fun ((vol, file, fbn), content) ->
                 match
                   try Aggregate.read agg2 ~vol ~file ~fbn
                   with Aggregate.Corruption _ -> None
                 with
                 | Some c when c = content -> ()
                 | _ -> incr lost)
               (Oracle.bindings expected)));
      Engine.run eng2;
      races := !races + Engine.race_report_count eng2;
      (try Aggregate.fsck agg2 with Failure m -> fsck_failure := Some m));
  {
    seed;
    crash_time;
    mid_cp;
    cp_phase;
    cps_before_crash;
    last_ack_us = !last_ack_us;
    acked = Oracle.cardinal expected;
    torn;
    lost = !lost;
    fsck_failure = !fsck_failure;
    disk_failure_active;
    media_errors = Fault.media_errors_seen plan;
    transient_retries = Fault.transient_retries plan;
    degraded_reads = Fault.degraded_reads plan;
    rebuild_blocks = Fault.rebuild_blocks plan;
    b2b_cps;
    stall_us;
    exhausted_writes;
    flash_gc_pages;
    flash_erases;
    races = !races;
  }

let passed o = o.lost = 0 && o.fsck_failure = None

(* Seeds are fully independent runs (each builds its own engines), so
   they fan out over worker domains; the outcome list keeps seed order,
   byte-identical to a serial sweep at any [domains]. *)
let run_seeds ?ops ?fbn_space ?horizon ?sanitize ?overload ?flash ?chaos ?(domains = 1)
    ~first_seed ~count () =
  Wafl_util.Pool.map ~domains
    (fun seed -> run_one ?ops ?fbn_space ?horizon ?sanitize ?overload ?flash ?chaos ~seed ())
    (List.init count (fun i -> first_seed + i))

let summarize outcomes =
  let n = List.length outcomes in
  let failed = List.filter (fun o -> not (passed o)) outcomes in
  let count f = List.length (List.filter f outcomes) in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "crash harness: %d/%d seeds passed\n" (n - List.length failed) n);
  Buffer.add_string b
    (Printf.sprintf "  crashed mid-CP: %d   degraded at crash: %d   with torn tail: %d\n"
       (count (fun o -> o.mid_cp))
       (count (fun o -> o.disk_failure_active))
       (count (fun o -> o.torn > 0)));
  Buffer.add_string b
    (Printf.sprintf
       "  faults seen: %d media errors, %d transient retries, %d degraded reads, %d rebuilt \
        blocks\n"
       (sum (fun o -> o.media_errors))
       (sum (fun o -> o.transient_retries))
       (sum (fun o -> o.degraded_reads))
       (sum (fun o -> o.rebuild_blocks)));
  let b2b = sum (fun o -> o.b2b_cps) in
  let stall = List.fold_left (fun acc o -> acc +. o.stall_us) 0.0 outcomes in
  if b2b > 0 || stall > 0.0 then
    Buffer.add_string b
      (Printf.sprintf
         "  overload: %d back-to-back CPs, %.1f ms client stall, %d exhausted-write refusals\n"
         b2b (stall /. 1000.0)
         (sum (fun o -> o.exhausted_writes)));
  let gc_pages = sum (fun o -> o.flash_gc_pages) in
  if gc_pages > 0 then
    Buffer.add_string b
      (Printf.sprintf
         "  flash: %d GC relocations, %d erases before crash (%d seeds crashed with GC \
          underway)\n"
         gc_pages
         (sum (fun o -> o.flash_erases))
         (count (fun o -> o.flash_gc_pages > 0)));
  List.iter
    (fun o ->
      Buffer.add_string b
        (Printf.sprintf "  FAILED seed %d: lost %d/%d acked blocks%s (crash %.0fus, phase %s)\n"
           o.seed o.lost o.acked
           (match o.fsck_failure with Some m -> ", fsck: " ^ m | None -> "")
           o.crash_time o.cp_phase))
    failed;
  Buffer.contents b
