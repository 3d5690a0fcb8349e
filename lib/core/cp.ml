open Wafl_sim
open Wafl_fs

type config = {
  batching : bool;
  segment_buffers : int;
  timer_interval : float option;
  serial_cleaning : bool;
      (* historical pre-2008 mode: inode cleaning runs as Serial-affinity
         messages with VBN-at-a-time allocation and direct metafile
         access, excluding all client processing (paper SIII-B/C) *)
  fair_cp : bool;
      (* round-robin cleaning work across volumes so one hot tenant
         cannot monopolize the front of a checkpoint (DESIGN.md §4.11) *)
}

type serial_state = {
  mutable pvbn_cursor : int;
  vvbn_cursors : (int, int ref) Hashtbl.t;
  io_batches : Layout.block Wafl_storage.Raid.batch option array; (* per RAID group *)
}

type t = {
  eng : Engine.t;
  cost : Cost.t;
  infra : Infra.t;
  pool : Cleaner_pool.t;
  cfg : config;
  agg : Aggregate.t;
  obs : Wafl_obs.Trace.t;
  h_cp : Metrics.histo;
  m_cp_buffers : Metrics.counter;
  (* The previous CP committed with the half-full trigger already reached
     again: the CP starting now is back-to-back (paper §II-C). *)
  mutable next_is_b2b : bool;
  mutable in_b2b_run : bool;
  mutable n_b2b : int;
  mutable n_b2b_episodes : int;
  serial : serial_state;
  (* The CP's dirty fbns, each snapshot file's ascending, one file after
     another; cleaner segments are slices of it.  Reused CP to CP at its
     high-water size. *)
  mutable fbns : int array;
  mutable requested : bool;
  mutable is_running : bool;
  manager : Sync.Waitq.t;
  completion : Sync.Waitq.t;
  mutable n_cps : int;
  mutable last_duration : float;
  mutable last_meta : int;
  mutable last_passes : int;
  mutable phase : string;
  mutable phase_start : float;
  (* Phase-duration histogram handles, cached by phase name: phases
     change many times per CP and the registry lookup concats + hashes a
     string each time. *)
  phase_histos : (string, Metrics.histo) Hashtbl.t;
}

(* Phase transition: closes the previous phase's span (the CP timeline in
   the exported trace) and records its duration in a per-phase histogram.
   "idle" delimits CPs and is never emitted as a span. *)
let phase_histo t name =
  match Hashtbl.find_opt t.phase_histos name with
  | Some h -> h
  | None ->
      let h = Metrics.histogram (Engine.metrics t.eng) ("cp.phase_us." ^ name) in
      Hashtbl.add t.phase_histos name h;
      h

let set_phase t name =
  (if t.phase <> "idle" then begin
     let dur = Engine.now t.eng -. t.phase_start in
     Metrics.observe (phase_histo t t.phase) dur;
     if Wafl_obs.Trace.enabled t.obs then
       Wafl_obs.Trace.complete t.obs ~cat:"cp" ~name:("cp " ^ t.phase) ~ts:t.phase_start ~dur ()
   end);
  t.phase <- name;
  t.phase_start <- Engine.now t.eng

(* --- work distribution (batching + segmentation, §V-C) ------------------ *)

(* Size [t.fbns] for the snapshot, with an eighth to spare so a slowly
   rising high-water mark regrows it rarely; returns the buffer count. *)
let reserve_fbns t snapshot =
  let total =
    List.fold_left
      (fun acc (_, files) ->
        List.fold_left (fun acc f -> acc + File.cp_buffer_count f) acc files)
      0 snapshot
  in
  if total > Array.length t.fbns then t.fbns <- Array.make (total + (total / 8)) 0;
  total

(* Copy a file's snapshot fbns into [t.fbns] at [!cursor]; returns where
   they start. *)
let load_fbns t file ~cursor =
  let first = !cursor in
  File.cp_fbns_into file t.fbns ~pos:first;
  cursor := first + File.cp_buffer_count file;
  first

(* A batch closes at 16 inodes or 64 dirty buffers, whichever comes
   first. *)
let batch_max_inodes = 16
let batch_max_buffers = 64

let build_work_seq t snapshot ~cursor =
  let units = ref [] in
  let batch = ref [] and batch_inodes = ref 0 and batch_buffers = ref 0 in
  let flush_batch () =
    if !batch <> [] then begin
      units := List.rev !batch :: !units;
      batch := [];
      batch_inodes := 0;
      batch_buffers := 0
    end
  in
  List.iter
    (fun (vol, files) ->
      List.iter
        (fun file ->
          let n = File.cp_buffer_count file in
          if n > 0 then begin
            let first = load_fbns t file ~cursor in
            let segment ~first ~len ~whole_inode =
              { Cleaner_pool.vol; file; fbns = t.fbns; first; len; whole_inode }
            in
            if n > t.cfg.segment_buffers then begin
              (* Large inode: split so several cleaners share it. *)
              flush_batch ();
              let off = ref 0 in
              while !off < n do
                let len = min t.cfg.segment_buffers (n - !off) in
                units := [ segment ~first:(first + !off) ~len ~whole_inode:(!off = 0) ] :: !units;
                off := !off + len
              done
            end
            else if t.cfg.batching then begin
              if
                !batch_inodes >= batch_max_inodes
                || !batch_buffers + n > batch_max_buffers && !batch_inodes > 0
              then flush_batch ();
              batch := segment ~first ~len:n ~whole_inode:true :: !batch;
              incr batch_inodes;
              batch_buffers := !batch_buffers + n
            end
            else units := [ segment ~first ~len:n ~whole_inode:true ] :: !units
          end)
        files)
    snapshot;
  flush_batch ();
  List.rev !units

(* Fair CP admission: build each volume's work units independently (so
   batches never span volumes), then round-robin the units across
   volumes.  Cleaners pull units in submission order, so interleaving the
   list bounds how long any volume waits behind a hot neighbour. *)
let build_work t snapshot =
  let cursor = ref 0 in
  if t.cfg.fair_cp then
    Wafl_qos.Fair.interleave
      (List.map (fun entry -> build_work_seq t [ entry ] ~cursor) snapshot)
  else build_work_seq t snapshot ~cursor

(* --- metafile pass ------------------------------------------------------ *)

(* Relocate and write out every dirty metafile block.

   Phase A (on the CP fiber): assign a fresh pvbn to every dirty block,
   iterating to a fixpoint because assignments and frees dirty the
   aggregate activemap chunks; each block is relocated at most once per
   pass and allocation bits are committed inline, so the activemap
   content is final when phase A ends.  Exhausted buckets are returned
   immediately (marked committed) so refill cycles keep running through
   metafile-heavy CPs.

   Phase B: serialization and tetris enqueue of the (possibly thousands
   of) relocated blocks fan out as Waffinity messages in Range
   affinities — the paper's "most expensive infrastructure operations
   run in Range affinities" optimization, and the reason infrastructure
   parallelization pays off for random-write workloads whose scattered
   frees dirty many container and bitmap blocks. *)
let metafile_pass t =
  let current = ref None in
  (* Insertion-ordered set of tetrises (physical identity): hashing a
     tetris record would make the final submit order depend on structural
     hash internals. *)
  let tetrises = ref [] in
  let note_tetris bucket =
    match Bucket.tetris bucket with
    | Some tetris -> if not (List.memq tetris !tetrises) then tetrises := tetris :: !tetrises
    | None -> ()
  in
  let put_current () =
    match !current with
    | Some bucket ->
        Api.put t.infra bucket;
        current := None
    | None -> ()
  in
  let rec alloc_meta () =
    match !current with
    | Some bucket -> (
        match Api.take_deferred bucket with
        | Some pvbn ->
            Engine.consume t.cost.Cost.bitmap_bit_update;
            Aggregate.commit_alloc_pvbn t.agg pvbn;
            (pvbn, bucket)
        | None ->
            put_current ();
            alloc_meta ())
    | None ->
        Engine.consume (t.cost.Cost.lock_acquire +. t.cost.Cost.bucket_fixed);
        let bucket = Api.get_phys t.infra in
        Bucket.mark_committed bucket;
        note_tetris bucket;
        current := Some bucket;
        alloc_meta ()
  in
  (* Phase A: assignment fixpoint. *)
  let assigned : (Aggregate.meta_ref, unit) Hashtbl.t = Hashtbl.create 256 in
  let order = ref [] in
  let passes = ref 0 in
  let continue_passes = ref true in
  while !continue_passes do
    incr passes;
    if !passes > 24 then failwith "Cp: metafile relocation did not converge";
    let refs = Aggregate.take_dirty_meta t.agg in
    let progressed = ref false in
    List.iter
      (fun ref_ ->
        if not (Hashtbl.mem assigned ref_) then begin
          progressed := true;
          let pvbn, bucket = alloc_meta () in
          let old = Aggregate.meta_set_location t.agg ref_ pvbn in
          if old >= 0 then begin
            Engine.consume t.cost.Cost.bitmap_bit_update;
            Aggregate.commit_free_pvbn t.agg old
          end;
          Hashtbl.add assigned ref_ ();
          order := (ref_, pvbn, bucket) :: !order
        end)
      refs;
    if not !progressed then continue_passes := false
  done;
  put_current ();
  (* Phase B: parallel serialization + enqueue, batched per affinity.
     Batches are posted in first-appearance order of their affinity so
     the message sequence is independent of hash internals. *)
  let batches = Hashtbl.create 16 in
  let batch_order = ref [] in
  List.iter
    (fun ((ref_, _, _) as placed) ->
      let affinity = Infra.meta_affinity t.infra ref_ in
      (match Hashtbl.find_opt batches affinity with
      | None ->
          batch_order := affinity :: !batch_order;
          Hashtbl.add batches affinity [ placed ]
      | Some cur -> Hashtbl.replace batches affinity (placed :: cur)))
    (List.rev !order);
  let outstanding = ref 0 in
  let me = Engine.self t.eng in
  let batch_size = 32 in
  List.iter
    (fun affinity ->
      let refs = Hashtbl.find batches affinity in
      let rec chunks = function
        | [] -> ()
        | refs ->
            (* Each batch runs in reverse order; the digests pin that order. *)
            let batch, rest = Wafl_util.Lists.rev_take batch_size refs in
            (* The fan-out countdown is shared with every phase-B message
               (an atomic in a real kernel). *)
            Engine.probe_atomic t.eng ~shared:"cp.meta_outstanding";
            incr outstanding;
            Infra.post_meta t.infra ~affinity (fun () ->
                List.iter
                  (fun (ref_, pvbn, bucket) ->
                    let payload = Aggregate.meta_payload t.agg ref_ in
                    Engine.consume t.cost.Cost.metafile_block_touch;
                    Api.enqueue_deferred bucket ~vbn:pvbn ~payload)
                  batch;
                Engine.probe_atomic t.eng ~shared:"cp.meta_outstanding";
                decr outstanding;
                if !outstanding = 0 then Engine.wake t.eng me);
            chunks rest
      in
      chunks refs)
    (List.rev !batch_order);
  if !outstanding > 0 then Engine.park t.eng;
  Engine.probe_atomic t.eng ~shared:"cp.meta_outstanding";
  (* Force out the tetrises that received metafile blocks: their buckets
     may already have been returned and their cycles retired. *)
  List.iter Tetris.submit_now (List.rev !tetrises);
  (Hashtbl.length assigned, !passes)

(* --- deferred file deletion ---------------------------------------------- *)

(* Zombie processing: a deleted file's blocks are reclaimed during the
   next CP — data vvbns and pvbns through the normal free-commit path
   (parallel across Range affinities), block-map metafile blocks as
   physical frees, and finally the inode-table entry disappears, which
   rewrites its inode chunk.  Idempotent so a replayed deletion after a
   crash is harmless. *)
let process_zombies t =
  List.iter
    (fun vol ->
      List.iter
        (fun file ->
          if Volume.file vol (File.id file) <> None then begin
            let token = Counters.token (Aggregate.counters t.agg) in
            let vvbns = ref [] and pvbns = ref [] in
            for fbn = 0 to File.nfbns file - 1 do
              let vvbn = File.vvbn_of_fbn file fbn in
              if vvbn >= 0 then begin
                let pvbn = Volume.map_vvbn vol ~vvbn ~pvbn:(-1) in
                if pvbn >= 0 then pvbns := pvbn :: !pvbns;
                vvbns := vvbn :: !vvbns
              end
            done;
            (* The block-map metafile blocks are freed too. *)
            let rec_ = File.inode_rec file in
            Array.iter (fun (_, pvbn) -> pvbns := pvbn :: !pvbns) rec_.Layout.bmap_pvbns;
            let rec in_batches target = function
              | [] -> ()
              | vbns ->
                  let batch, rest = Wafl_util.Lists.rev_take 64 vbns in
                  Infra.commit_frees t.infra ~target ~vbns:(Array.of_list batch) ~token;
                  in_batches target rest
            in
            in_batches (Stage.Virt { vol = Volume.id vol }) !vvbns;
            in_batches Stage.Phys !pvbns;
            Counters.stage token "files_deleted" 1;
            Volume.remove_file vol (File.id file)
          end)
        (Volume.take_zombies vol))
    (Aggregate.volumes t.agg)

(* --- historical serial-affinity cleaning (pre-2008, SIII-B/C) ------------ *)

(* One VBN at a time, straight out of the allocation bitmaps, with every
   metafile update made inline — the design whose serialization motivated
   first the single cleaner thread and then White Alligator.  All work
   runs in the Serial affinity, so client operations are excluded while
   cleaning proceeds. *)

let serial_alloc_in t map ~allocatable ~cursor ~limit =
  let scanned_before = Bitmap_file.words_scanned map in
  let rec hunt ~wrapped start =
    match Bitmap_file.find_free map ~lo:0 ~hi:(limit - 1) ~start with
    | Some v when allocatable v -> Some v
    | Some v -> hunt ~wrapped (v + 1)
    | None -> if wrapped then None else hunt ~wrapped:true 0
  in
  let found = hunt ~wrapped:false !cursor in
  Engine.consume
    (float_of_int (Bitmap_file.words_scanned map - scanned_before)
    *. t.cost.Cost.bitmap_scan_word);
  match found with
  | Some v ->
      cursor := v + 1;
      v
  | None -> failwith "serial allocator: out of space"

let serial_pvbn_cursor t = ref t.serial.pvbn_cursor

let serial_alloc_pvbn t =
  let cursor = serial_pvbn_cursor t in
  let v =
    serial_alloc_in t (Aggregate.agg_map t.agg)
      ~allocatable:(fun v -> Aggregate.pvbn_allocatable t.agg v)
      ~cursor
      ~limit:(Wafl_storage.Geometry.total_data_blocks (Aggregate.geometry t.agg))
  in
  t.serial.pvbn_cursor <- !cursor;
  Engine.consume (t.cost.Cost.metafile_block_touch +. t.cost.Cost.bitmap_bit_update);
  Aggregate.commit_alloc_pvbn t.agg v;
  v

let serial_alloc_vvbn t vol =
  let cursor =
    match Hashtbl.find_opt t.serial.vvbn_cursors (Volume.id vol) with
    | Some c -> c
    | None ->
        let c = ref 0 in
        Hashtbl.add t.serial.vvbn_cursors (Volume.id vol) c;
        c
  in
  let v =
    serial_alloc_in t (Volume.vol_map vol)
      ~allocatable:(fun v -> Aggregate.vvbn_allocatable t.agg ~vol v)
      ~cursor ~limit:(Volume.vvbn_space vol)
  in
  Engine.consume (t.cost.Cost.metafile_block_touch +. t.cost.Cost.bitmap_bit_update);
  Aggregate.commit_alloc_vvbn t.agg ~vol v;
  v

(* The serial path keeps one open write batch per RAID group, taken from
   the group's pool at its first block and submitted at 1024 blocks. *)
let serial_batch t rg =
  match t.serial.io_batches.(rg) with
  | Some b -> b
  | None ->
      let b = Wafl_storage.Raid.batch (Aggregate.raid t.agg ~rg) in
      t.serial.io_batches.(rg) <- Some b;
      b

let serial_submit t rg =
  match t.serial.io_batches.(rg) with
  | Some b ->
      t.serial.io_batches.(rg) <- None;
      Wafl_storage.Raid.submit_batch (Aggregate.raid t.agg ~rg) b ~on_complete:(fun () -> ())
  | None -> ()

let serial_submit_full t rg =
  if Wafl_storage.Raid.batch_length (serial_batch t rg) >= 1024 then serial_submit t rg

let serial_rg t pvbn = Wafl_storage.Geometry.rg_of (Aggregate.geometry t.agg) pvbn

let serial_enqueue_write t pvbn payload =
  let rg = serial_rg t pvbn in
  Wafl_storage.Raid.add (serial_batch t rg) pvbn payload;
  serial_submit_full t rg

let serial_flush_io t =
  for rg = 0 to Array.length t.serial.io_batches - 1 do
    serial_submit t rg
  done

let serial_clean_buffer t vol file fbn =
  let vvbn = serial_alloc_vvbn t vol in
  let pvbn = serial_alloc_pvbn t in
  let old_vvbn = File.set_vvbn file ~fbn ~vvbn in
  ignore (Volume.map_vvbn vol ~vvbn ~pvbn);
  if old_vvbn >= 0 then begin
    let old_pvbn = Volume.map_vvbn vol ~vvbn:old_vvbn ~pvbn:(-1) in
    Engine.consume (2.0 *. (t.cost.Cost.metafile_block_touch +. t.cost.Cost.bitmap_bit_update));
    Aggregate.commit_free_vvbn t.agg ~vol old_vvbn;
    Aggregate.commit_free_pvbn t.agg old_pvbn
  end;
  let rg = serial_rg t pvbn in
  Layout.add_data (serial_batch t rg) pvbn ~vol:(Volume.id vol) ~file:(File.id file) ~fbn
    ~content:(File.cp_content file fbn);
  serial_submit_full t rg;
  Engine.consume t.cost.Cost.clean_buffer

(* Clean everything through Serial-affinity messages of bounded size;
   each message excludes the whole file system while it runs. *)
let serial_clean t snapshot =
  let sched = Infra.scheduler t.infra in
  let cursor = ref 0 in
  List.iter
    (fun (vol, files) ->
      List.iter
        (fun file ->
          let chunk = ref (load_fbns t file ~cursor) in
          while !chunk < !cursor do
            let lo = !chunk and hi = min !cursor (!chunk + 256) - 1 in
            Wafl_waffinity.Scheduler.post_wait sched ~affinity:Wafl_waffinity.Affinity.Serial
              ~label:"cleaner" (fun () ->
                Engine.consume t.cost.Cost.clean_inode_overhead;
                for i = lo to hi do
                  serial_clean_buffer t vol file t.fbns.(i)
                done);
            chunk := hi + 1
          done)
        files)
    snapshot

let serial_metafile_pass t =
  (* Same fixpoint discipline as the White Alligator pass: each block is
     relocated at most once per CP; non-activemap blocks are serialized
     at assignment time, aggregate-activemap chunks only after all
     allocation bits have settled. *)
  let written = ref 0 in
  let passes = ref 0 in
  let aggmap_assigned : (Aggregate.meta_ref, int) Hashtbl.t = Hashtbl.create 64 in
  let aggmap_order = ref [] in
  let continue_passes = ref true in
  while !continue_passes do
    incr passes;
    if !passes > 24 then failwith "Cp: serial metafile relocation did not converge";
    let refs = Aggregate.take_dirty_meta t.agg in
    let progressed = ref false in
    List.iter
      (fun ref_ ->
        match ref_ with
        | Blockref.Agg_map_chunk _ ->
            if not (Hashtbl.mem aggmap_assigned ref_) then begin
              progressed := true;
              let pvbn = serial_alloc_pvbn t in
              let old = Aggregate.meta_set_location t.agg ref_ pvbn in
              if old >= 0 then begin
                Engine.consume t.cost.Cost.bitmap_bit_update;
                Aggregate.commit_free_pvbn t.agg old
              end;
              Hashtbl.add aggmap_assigned ref_ pvbn;
              aggmap_order := ref_ :: !aggmap_order
            end
        | _ ->
            progressed := true;
            let pvbn = serial_alloc_pvbn t in
            let old = Aggregate.meta_set_location t.agg ref_ pvbn in
            if old >= 0 then begin
              Engine.consume t.cost.Cost.bitmap_bit_update;
              Aggregate.commit_free_pvbn t.agg old
            end;
            let payload = Aggregate.meta_payload t.agg ref_ in
            Engine.consume t.cost.Cost.metafile_block_touch;
            serial_enqueue_write t pvbn payload;
            incr written)
      refs;
    if not !progressed then continue_passes := false
  done;
  (* Write the settled activemap chunks in assignment order — iterating
     the table would tie the I/O sequence to hash internals. *)
  List.iter
    (fun ref_ ->
      let pvbn = Hashtbl.find aggmap_assigned ref_ in
      let payload = Aggregate.meta_payload t.agg ref_ in
      Engine.consume t.cost.Cost.metafile_block_touch;
      serial_enqueue_write t pvbn payload;
      incr written)
    (List.rev !aggmap_order);
  (!written, !passes)

(* --- repair of failed writes (fault injection) -------------------------- *)

(* Free a pvbn whose write failed, unless something else already released
   it (the mapping moved on within this CP). *)
let repair_free t old_pvbn =
  if old_pvbn >= 0 && Bitmap_file.mem (Aggregate.agg_map t.agg) old_pvbn then begin
    Engine.consume t.cost.Cost.bitmap_bit_update;
    Aggregate.commit_free_pvbn t.agg old_pvbn
  end

(* After the io-flush quiesce, writes the RAID layer failed permanently
   (bad sector, transient retries exhausted) are re-allocated at fresh
   pvbns and re-submitted before the superblock is published, so the
   commit-point invariant — the superblock only references durable
   blocks — holds under injected faults.  Frees from this CP are frozen
   until publish, so each round draws genuinely fresh pvbns and a bad
   sector is never retried in place; relocations re-dirty metafile
   blocks, which another serial metafile pass flushes.  Iterates because
   the re-submitted writes can fail too. *)
let repair_failed_writes t =
  let repaired = ref 0 in
  let rounds = ref 0 in
  let continue_rounds = ref true in
  while !continue_rounds do
    let failed =
      Array.fold_left
        (fun acc raid -> acc @ Wafl_storage.Raid.take_failed raid)
        []
        (Aggregate.raid_groups t.agg)
    in
    if failed = [] then continue_rounds := false
    else begin
      incr rounds;
      if !rounds > 16 then failwith "Cp: write repair did not converge";
      List.iter
        (fun (old_pvbn, payload) ->
          match payload with
          | Layout.Data { vol; file; fbn; content = _ } -> (
              (* Re-map the vvbn only if it still points at the failed
                 location; otherwise just make sure the pvbn is not
                 leaked. *)
              match Aggregate.volume t.agg vol with
              | None -> repair_free t old_pvbn
              | Some v -> (
                  match Volume.file v file with
                  | None -> repair_free t old_pvbn
                  | Some f ->
                      let vvbn = File.vvbn_of_fbn f fbn in
                      if vvbn >= 0 && Volume.pvbn_of_vvbn v vvbn = old_pvbn then begin
                        let pvbn = serial_alloc_pvbn t in
                        ignore (Volume.map_vvbn v ~vvbn ~pvbn);
                        serial_enqueue_write t pvbn payload;
                        incr repaired
                      end;
                      repair_free t old_pvbn))
          | meta -> (
              match Blockref.of_block meta with
              | Some ref_ when Aggregate.meta_location t.agg ref_ = old_pvbn ->
                  let pvbn = serial_alloc_pvbn t in
                  ignore (Aggregate.meta_set_location t.agg ref_ pvbn);
                  repair_free t old_pvbn;
                  (* Serialize after the location change so the payload
                     embeds the new location (bmap moves re-dirty the
                     inode chunk; the metafile pass below rewrites it). *)
                  serial_enqueue_write t pvbn (Aggregate.meta_payload t.agg ref_);
                  incr repaired
              | _ -> repair_free t old_pvbn))
        failed;
      (* Flush re-dirtied metafile blocks (activemap bits, relocated bmap
         locations) and push everything to disk before re-checking. *)
      ignore (serial_metafile_pass t);
      serial_flush_io t;
      Array.iter Wafl_storage.Raid.quiesce (Aggregate.raid_groups t.agg)
    end
  done;
  !repaired

(* --- the CP itself ------------------------------------------------------ *)

let publish_commit t =
  Engine.consume t.cost.Cost.cp_fixed;
  let sb = Aggregate.make_superblock t.agg in
  Engine.sleep t.cost.Cost.device_base_latency;
  Aggregate.publish_superblock t.agg sb

let run_cp_body t =
  let started = Engine.now t.eng in
  let chaos = Aggregate.chaos t.agg in
  t.is_running <- true;
  (* Back-to-back bookkeeping: this CP is B2B when the previous one
     committed with the half-full trigger already re-reached, i.e. demand
     filled a log half faster than one CP could drain it.  A maximal run
     of consecutive B2B CPs is one episode. *)
  let is_b2b = t.next_is_b2b || chaos.force_b2b in
  if is_b2b then begin
    t.n_b2b <- t.n_b2b + 1;
    if not t.in_b2b_run then t.n_b2b_episodes <- t.n_b2b_episodes + 1
  end;
  t.in_b2b_run <- is_b2b;
  set_phase t "snapshot";
  Engine.consume t.cost.Cost.cp_fixed;
  let snapshot = Aggregate.cp_snapshot t.agg in
  set_phase t "zombies";
  process_zombies t;
  (* Deleted files must not also be cleaned. *)
  let deleted (vol, _) file = Volume.file vol (File.id file) = None in
  let snapshot =
    List.map
      (fun (vol, files) ->
        (vol, List.filter (fun f -> not (deleted (vol, files) f)) files))
      snapshot
  in
  let buffers_total = reserve_fbns t snapshot in
  let meta_blocks, passes =
    if t.cfg.serial_cleaning then begin
      (* Historical path: everything in the Serial affinity. *)
      set_phase t "cleaning";
      serial_clean t snapshot;
      set_phase t "metafiles";
      Engine.set_label t.eng "infra";
      let result =
        Wafl_waffinity.Scheduler.post_wait (Infra.scheduler t.infra)
          ~affinity:Wafl_waffinity.Affinity.Serial ~label:"infra" (fun () ->
            serial_metafile_pass t)
      in
      Engine.set_label t.eng "cp";
      if chaos.publish_before_quiesce then publish_commit t;
      set_phase t "io-flush";
      serial_flush_io t;
      Array.iter Wafl_storage.Raid.quiesce (Aggregate.raid_groups t.agg);
      result
    end
    else begin
      (* Phase 1: clean all dirty inodes through the cleaner pool. *)
      let work = build_work t snapshot in
      set_phase t "cleaning";
      List.iter (fun w -> Cleaner_pool.submit t.pool w) work;
      Cleaner_pool.wait_idle t.pool;
      (* Phase 2: return every bucket and stage, and let the infrastructure
         apply all outstanding commits. *)
      set_phase t "flush";
      Cleaner_pool.flush_and_wait t.pool;
      set_phase t "quiesce-commits";
      Infra.quiesce_commits t.infra;
      (* Phase 3: relocate and write dirty metafile blocks.  This is
         metafile processing, so account it as infrastructure work. *)
      set_phase t "metafiles";
      Engine.set_label t.eng "infra";
      let result = metafile_pass t in
      Engine.set_label t.eng "cp";
      set_phase t "quiesce-commits-2";
      Infra.quiesce_commits t.infra;
      if chaos.publish_before_quiesce then publish_commit t;
      (* Phase 4: push out all remaining buffered blocks and wait for
         durability. *)
      set_phase t "io-flush";
      List.iter Tetris.submit_now (Infra.live_tetrises t.infra);
      Array.iter Wafl_storage.Raid.quiesce (Aggregate.raid_groups t.agg);
      result
    end
  in
  (* Phase 4.5: re-allocate writes the RAID layer failed permanently, so
     the superblock published next only references durable blocks. *)
  set_phase t "repair";
  ignore (repair_failed_writes t);
  (* Phase 5: the atomic commit. *)
  if not chaos.publish_before_quiesce then publish_commit t;
  t.n_cps <- t.n_cps + 1;
  t.last_duration <- Engine.now t.eng -. started;
  t.last_meta <- meta_blocks;
  t.last_passes <- passes;
  Metrics.observe t.h_cp t.last_duration;
  Metrics.add t.m_cp_buffers buffers_total;
  if Wafl_obs.Trace.enabled t.obs then
    Wafl_obs.Trace.complete t.obs ~cat:"cp" ~name:"CP" ~ts:started ~dur:t.last_duration
      ~num_args:
        [
          ("generation", float_of_int (Aggregate.generation t.agg));
          ("buffers", float_of_int buffers_total);
          ("meta_blocks", float_of_int meta_blocks);
          ("passes", float_of_int passes);
        ]
      ();
  t.next_is_b2b <- Nvlog.is_half_full (Aggregate.nvlog t.agg);
  t.is_running <- false;
  set_phase t "idle";
  ignore (Sync.Waitq.wake_all t.completion)

(* Each CP runs under its own causal root: every handoff made while it
   runs — cleaner work, Waffinity posts, RAID I/Os — carries the CP's
   context, which is what lets the analyzer extract a per-CP critical
   path and attribute it to resource classes. *)
let run_cp t = Wafl_obs.Causal.with_root t.obs (fun () -> run_cp_body t)

let manager_loop t () =
  let rec loop () =
    while not t.requested do
      Sync.Waitq.wait t.manager
    done;
    t.requested <- false;
    run_cp t;
    loop ()
  in
  loop ()

let request t =
  if not t.requested then begin
    t.requested <- true;
    ignore (Sync.Waitq.wake_all t.manager)
  end

let run_now t =
  let target = t.n_cps + if t.is_running then 2 else 1 in
  request t;
  while t.n_cps < target do
    request t;
    Sync.Waitq.wait t.completion
  done

let create ?(obs = Wafl_obs.Trace.disabled) infra pool cfg =
  let agg = Infra.aggregate infra in
  let eng = Aggregate.engine agg in
  let m = Engine.metrics eng in
  let t =
    {
      eng;
      cost = Aggregate.cost agg;
      infra;
      pool;
      cfg;
      agg;
      obs;
      h_cp = Metrics.histogram m "cp.duration_us";
      m_cp_buffers = Metrics.counter m "cp.buffers_cleaned";
      next_is_b2b = false;
      in_b2b_run = false;
      n_b2b = 0;
      n_b2b_episodes = 0;
      serial =
        {
          pvbn_cursor = 0;
          vvbn_cursors = Hashtbl.create 4;
          io_batches =
            Array.make
              (Wafl_storage.Geometry.raid_group_count
                 (Aggregate.geometry (Infra.aggregate infra)))
              None;
        };
      fbns = [||];
      requested = false;
      is_running = false;
      manager = Sync.Waitq.create eng;
      completion = Sync.Waitq.create eng;
      n_cps = 0;
      last_duration = 0.0;
      last_meta = 0;
      last_passes = 0;
      phase = "idle";
      phase_start = 0.0;
      phase_histos = Hashtbl.create 16;
    }
  in
  let pull name f = Metrics.pull_counter m name (fun () -> float_of_int (f ())) in
  pull "cp.count" (fun () -> t.n_cps);
  pull "cp.b2b" (fun () -> t.n_b2b);
  pull "cp.b2b_episodes" (fun () -> t.n_b2b_episodes);
  ignore (Engine.spawn eng ~label:"cp" (manager_loop t));
  (match cfg.timer_interval with
  | None -> ()
  | Some interval ->
      ignore
        (Engine.spawn eng ~label:"cp" (fun () ->
             let rec tick () =
               Engine.sleep interval;
               request t;
               tick ()
             in
             tick ())));
  t

let running t = t.is_running
let phase t = t.phase
let cps_completed t = t.n_cps
let b2b_cps t = t.n_b2b
let meta_blocks_last_cp t = t.last_meta
let meta_passes_last_cp t = t.last_passes
