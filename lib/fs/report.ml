open Wafl_storage

let space agg =
  let buf = Buffer.create 256 in
  let geom = Aggregate.geometry agg in
  let total = Geometry.total_data_blocks geom in
  let map = Aggregate.agg_map agg in
  let free = Counters.read (Aggregate.counters agg) "agg_free_blocks" in
  let held = Counters.read (Aggregate.counters agg) "snapshot_held_blocks" in
  Buffer.add_string buf
    (Printf.sprintf "aggregate: %d blocks total, %d used, %d free, %d snapshot-held\n" total
       (Bitmap_file.used_count map) free held);
  List.iter
    (fun vol ->
      let vmap = Volume.vol_map vol in
      Buffer.add_string buf
        (Printf.sprintf "  volume %d: %d files, %d/%d vvbns used\n" (Volume.id vol)
           (Volume.file_count vol)
           (Bitmap_file.used_count vmap)
           (Volume.vvbn_space vol)))
    (Aggregate.volumes agg);
  let cache = Aggregate.buffer_cache agg in
  Buffer.add_string buf
    (Printf.sprintf "buffer cache: %d/%d blocks resident, %.1f%% hit rate\n"
       (Buffer_cache.length cache) (Buffer_cache.capacity cache)
       (100.0 *. Buffer_cache.hit_rate cache));
  Buffer.contents buf

let snapshots agg =
  match Aggregate.snapshots agg with
  | [] -> "no snapshots\n"
  | snaps ->
      let buf = Buffer.create 128 in
      List.iter
        (fun s ->
          (* Held = pinned blocks no longer in the active tree. *)
          let words = Snapshot.held_words s in
          let active = Aggregate.agg_map agg in
          let held = ref 0 in
          Array.iteri
            (fun w word ->
              if word <> 0L then
                for i = 0 to 63 do
                  if Wafl_util.Bitops.get word i then begin
                    let pvbn = (w * 64) + i in
                    if
                      Geometry.vbn_valid (Aggregate.geometry agg) pvbn
                      && not (Bitmap_file.mem active pvbn)
                    then incr held
                  end
                done)
            words;
          Buffer.add_string buf
            (Printf.sprintf "snapshot %-16s generation %-5d holds %d otherwise-free blocks\n"
               (Snapshot.name s) (Snapshot.generation s) !held))
        snaps;
      Buffer.contents buf

let allocation_areas agg =
  let geom = Aggregate.geometry agg in
  let buf = Buffer.create 128 in
  for rg = 0 to Geometry.raid_group_count geom - 1 do
    let frees =
      List.init (Geometry.aa_count geom) (fun aa -> Aggregate.aa_free agg ~rg ~aa)
      |> List.sort compare
    in
    let n = List.length frees in
    let capacity = Geometry.aa_stripes geom * Geometry.data_drives geom ~rg in
    Buffer.add_string buf
      (Printf.sprintf
         "raid group %d: %d AAs of %d blocks; free in fullest %d, median %d, emptiest %d\n" rg
         n capacity (List.nth frees 0)
         (List.nth frees (n / 2))
         (List.nth frees (n - 1)))
  done;
  Buffer.contents buf

(* Render one histogram line: count, mean, p50, p99. *)
let histo_line buf label h =
  let module H = Wafl_util.Histogram in
  Buffer.add_string buf
    (Printf.sprintf "  %-28s %8d  mean %10.1f  p50 %10.1f  p99 %10.1f\n" label (H.count h)
       (H.mean h) (H.percentile h 50.0) (H.percentile h 99.0))

let perf ?elapsed m =
  let module M = Wafl_sim.Metrics in
  let module H = Wafl_util.Histogram in
  let buf = Buffer.create 512 in
  let with_prefix prefix l =
    List.filter_map
      (fun (name, v) ->
        let pl = String.length prefix in
        if String.length name > pl && String.sub name 0 pl = prefix then
          Some (String.sub name pl (String.length name - pl), v)
        else None)
      l
  in
  (* Checkpoints *)
  let cps = M.counter_value m "cp.count" in
  Buffer.add_string buf
    (Printf.sprintf "checkpoints: %.0f completed, %.0f buffers cleaned\n" cps
       (M.counter_value m "cp.buffers_cleaned"));
  (match M.histo m "cp.duration_us" with
  | Some h when H.count h > 0 -> histo_line buf "cp duration (us)" h
  | _ -> ());
  let phases = with_prefix "cp.phase_us." (M.histograms m) in
  if phases <> [] then begin
    Buffer.add_string buf "cp phase totals (virtual us):\n";
    List.iter
      (fun (phase, h) ->
        Buffer.add_string buf
          (Printf.sprintf "  %-28s %10.0f  (%d intervals)\n" phase
             (H.mean h *. float_of_int (H.count h))
             (H.count h)))
      phases
  end;
  (* Waffinity queues *)
  let waits = with_prefix "sched.wait_us." (M.histograms m) in
  if waits <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "message queues (%.0f messages dispatched):\n"
         (M.counter_value m "sched.messages"));
    List.iter (fun (kind, h) -> histo_line buf ("wait " ^ kind) h) waits;
    List.iter
      (fun (kind, h) -> histo_line buf ("service " ^ kind) h)
      (with_prefix "sched.service_us." (M.histograms m))
  end;
  (* Cleaner pool *)
  let busy = M.counter_value m "cleaner.busy_us" in
  let work = M.counter_value m "cleaner.work_msgs" in
  Buffer.add_string buf
    (Printf.sprintf "cleaners: %.0f work messages, %.0f busy virtual us, %.0f active%s\n" work
       busy
       (M.gauge_value m "cleaner.active")
       (match elapsed with
       | Some e when e > 0.0 && M.gauge_value m "cleaner.active" > 0.0 ->
           Printf.sprintf ", %.1f%% utilization"
             (100.0 *. busy /. (e *. M.gauge_value m "cleaner.active"))
       | _ -> ""));
  (* RAID *)
  Buffer.add_string buf
    (Printf.sprintf "raid: %.0f ios, %.0f blocks written\n" (M.counter_value m "raid.ios")
       (M.counter_value m "raid.blocks"));
  (match M.histo m "raid.io_service_us" with
  | Some h when H.count h > 0 -> histo_line buf "raid service (us)" h
  | _ -> ());
  (match M.histo m "raid.io_wait_us" with
  | Some h when H.count h > 0 -> histo_line buf "raid queue wait (us)" h
  | _ -> ());
  (match M.histo m "tetris.fill_blocks" with
  | Some h when H.count h > 0 -> histo_line buf "tetris fill (blocks)" h
  | _ -> ());
  (* Flash media model (DESIGN.md §4.13): write amplification and the GC
     push-back behind it.  Absent entirely without an FTL attached. *)
  let host_pages = M.counter_value m "flash.host_pages" in
  if host_pages > 0.0 then begin
    let gc_pages = M.counter_value m "flash.gc_pages" in
    Buffer.add_string buf
      (Printf.sprintf
         "flash: %.0f host pages, %.0f gc relocations (waf %.2f), %.0f erases in %.0f gc \
          runs, %.0f us host stall\n"
         host_pages gc_pages
         ((host_pages +. gc_pages) /. host_pages)
         (M.counter_value m "flash.erases")
         (M.counter_value m "flash.gc_runs")
         (M.counter_value m "flash.gc_stall_us"))
  end;
  (* Write path: end-to-end client latency per op kind plus the CP
     back-pressure component (DESIGN.md §4.10). *)
  let e2e = with_prefix "op.e2e_us." (M.histograms m) in
  let e2e = List.filter (fun (_, h) -> H.count h > 0) e2e in
  if e2e <> [] then begin
    Buffer.add_string buf "write path (end-to-end client latency, us):\n";
    List.iter (fun (kind, h) -> histo_line buf kind h) e2e;
    match M.histo m "op.throttle_us" with
    | Some h when H.count h > 0 -> histo_line buf "nvlog throttle (us)" h
    | _ -> ()
  end;
  (* Overload & QoS (DESIGN.md §4.11): watermark admission stalls,
     back-to-back CP episodes, and per-volume admission outcomes. *)
  let stall = M.counter_value m "nvlog.stall_us" in
  let b2b = M.counter_value m "cp.b2b" in
  let admitted = M.counter_value m "qos.admitted_ops" in
  let shed = M.counter_value m "qos.shed_ops" in
  if stall > 0.0 || b2b > 0.0 || admitted > 0.0 || shed > 0.0 then begin
    Buffer.add_string buf
      (Printf.sprintf
         "overload: %.0f us client stall in nvlog admission, %.0f back-to-back CPs in %.0f \
          episodes\n"
         stall b2b
         (M.counter_value m "cp.b2b_episodes"));
    if admitted > 0.0 || shed > 0.0 then begin
      Buffer.add_string buf
        (Printf.sprintf "qos: %.0f ops admitted (%.0f after a delay), %.0f shed\n" admitted
           (M.counter_value m "qos.throttled_ops") shed);
      match M.histo m "qos.queue_wait_us" with
      | Some h when H.count h > 0 -> histo_line buf "qos queue wait (us)" h
      | _ -> ()
    end
  end;
  Buffer.contents buf

let faults agg =
  let buf = Buffer.create 128 in
  (match Disk.fault (Aggregate.disk agg) with
  | None -> Buffer.add_string buf "faults: no fault plan attached\n"
  | Some f ->
      Buffer.add_string buf
        (Printf.sprintf
           "faults: %d media errors, %d transient retries, %d degraded reads, %d rebuilt \
            blocks, %d unrecoverable\n"
           (Fault.media_errors_seen f) (Fault.transient_retries f) (Fault.degraded_reads f)
           (Fault.rebuild_blocks f) (Fault.unrecoverable_reads f));
      Array.iter
        (fun raid ->
          if Raid.degraded raid then
            Buffer.add_string buf
              (Printf.sprintf "  raid group %d: DEGRADED, rebuild %d blocks done\n"
                 (Raid.rg raid) (Raid.rebuild_blocks raid)))
        (Aggregate.raid_groups agg));
  (* NVRAM exhaustion is a fault even without a disk fault plan: it means
     admission control failed to hold writes back against CP progress. *)
  let exhausted = Aggregate.exhausted_writes agg in
  if exhausted > 0 then
    Buffer.add_string buf
      (Printf.sprintf
         "nvlog: %d writes refused on exhausted NVRAM (admission control failed to throttle)\n"
         exhausted);
  Buffer.contents buf
