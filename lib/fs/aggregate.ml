open Wafl_storage

open Wafl_sim

open Blockref

type meta_ref = Blockref.t

type persist = {
  p_disk : Layout.block Disk.t;
  mutable p_sb : Layout.superblock option;
  p_nvlog : Nvlog.t;
  p_flash : Wafl_flash.Ftl.config option;
      (* media model config; the FTL state itself is volatile (the real
         device rebuilds its L2P from NAND metadata on power-on, modeled
         by re-deriving fill from the recovered activemap) *)
  p_chaos : Fault.chaos; (* the run's, so a recovery keeps it *)
}

exception Corruption = Blockref.Corruption

let vvbn_region_bits = Layout.bits_per_map_block

(* --- sanitizer data-domain names (DESIGN.md §4.7) ---

   One domain per metafile map block: the partition-private unit the
   affinity rules protect.  The same names are used by the allocation
   probes here, the scan probes in Infra, and the Isolation owner map. *)

let agg_map_domain ~index = Printf.sprintf "agg.map/%d" index
let vol_map_domain ~vol ~index = Printf.sprintf "vol/%d.map/%d" vol index
let pvbn_domain pvbn = agg_map_domain ~index:(pvbn / Layout.bits_per_map_block)
let vvbn_domain ~vol vvbn = vol_map_domain ~vol ~index:(vvbn / Layout.bits_per_map_block)

(* A registered volume and its free-space accounting, looked up by
   volume id on every client op and every vvbn allocation and free. *)
type vol_slot = {
  some_vol : Volume.t option; (* [Some vol], built once: a lookup allocates nothing *)
  free_vvbns : int ref; (* cached vvbn-free counter cell *)
  region_free : int array; (* free vvbns per vvbn region *)
}

type t = {
  eng : Engine.t;
  cost : Cost.t;
  geom : Geometry.t;
  pers : persist;
  raids : Layout.block Raid.t array;
  flash_on : bool; (* hoisted: any raid has an FTL attached *)
  agg_map : Bitmap_file.t;
  aa_free_tbl : int array array; (* rg -> aa -> free blocks *)
  mutable vols : (int * Volume.t) list; (* ascending ids; volumes are few *)
  mutable vol_slots : vol_slot option array; (* same volumes, by id *)
  free_cell : int ref; (* cached [free_counter] cell: no hash per block *)
  held_cell : int ref; (* cached "snapshot_held_blocks" cell *)
  (* Union of every snapshot's held words, rebuilt whenever [snaps]
     changes, so [snapshot_held] is one bit test instead of a scan. *)
  mutable snap_union : int64 array;
  counters : Counters.t;
  recently_freed : Freed_set.t; (* pvbns frozen until the CP publishes *)
  image_spares : Wafl_util.Packed.spares; (* buffers of images the publish discarded *)
  buffers : File.buffers; (* every file's dirty buffers *)
  cache : Buffer_cache.t;
  mutable snaps : Snapshot.t list;
  log_space : Sync.Waitq.t;
  mutable next_vol_id : int;
  mutable generation : int;
  mutable cp_count : int;
  mutable cp_in_progress : bool;
  (* Overload protection (DESIGN.md §4.11).  [cp_trigger] is installed by
     the CP engine so watermark admission can start an early CP;
     [log_inflight] counts writes admitted past [wait_for_log_space] but
     not yet appended, so admission sees NVRAM slots already spoken for. *)
  mutable cp_trigger : (unit -> unit) option;
  mutable log_inflight : int;
  mutable stall_us : float;
  mutable hard_dwell_us : float;
  mutable exhausted : int; (* writes refused on exhausted NVRAM *)
}

let free_counter = "agg_free_blocks"
let vol_free_counter vid = Printf.sprintf "vol%d_free_vvbns" vid

let make_raids eng cost disk geom obs flash_cfg =
  Array.init (Geometry.raid_group_count geom) (fun rg ->
      let flash =
        Option.map
          (fun cfg ->
            let lpns = Geometry.data_drives geom ~rg * Geometry.drive_blocks geom in
            Wafl_flash.Ftl.create ~obs eng ~cfg ~lpns ~rg)
          flash_cfg
      in
      Raid.create ~obs ?flash eng ~cost ~disk ~rg)

(* A full metafile image is 512 slots: 2 KiB of entries or 4 KiB of
   words, pooled apart.  The shorter tail block of a small map is left
   to the GC. *)
let new_spares () = Wafl_util.Packed.spares ~slots:Layout.entries_per_bmap_block

let init_aa_free geom =
  Array.init (Geometry.raid_group_count geom) (fun rg ->
      Array.make (Geometry.aa_count geom)
        (Geometry.aa_stripes geom * Geometry.data_drives geom ~rg))

(* The one constructor behind [create] and [recover]: an empty aggregate
   over [pers], with every free block counted free and the NVLog
   accounting published to the engine's registry. *)
let build ?(cache_blocks = 65536) ~obs eng ~cost pers =
  let geometry = Disk.geometry pers.p_disk in
  let counters = Counters.create () in
  let t =
    {
      eng;
      cost;
      geom = geometry;
      pers;
      raids = make_raids eng cost pers.p_disk geometry obs pers.p_flash;
      flash_on = pers.p_flash <> None;
      agg_map = Bitmap_file.create ~bits:(Geometry.total_data_blocks geometry);
      aa_free_tbl = init_aa_free geometry;
      vols = [];
      vol_slots = [||];
      free_cell = Counters.cell counters free_counter;
      held_cell = Counters.cell counters "snapshot_held_blocks";
      snap_union = [||];
      counters;
      recently_freed = Freed_set.create ~bits:(Geometry.total_data_blocks geometry);
      image_spares = new_spares ();
      buffers = File.buffers ();
      cache = Buffer_cache.create ~capacity:cache_blocks;
      snaps = [];
      log_space = Sync.Waitq.create eng;
      next_vol_id = 0;
      generation = 0;
      cp_count = 0;
      cp_in_progress = false;
      cp_trigger = None;
      log_inflight = 0;
      stall_us = 0.0;
      hard_dwell_us = 0.0;
      exhausted = 0;
    }
  in
  Counters.set t.counters free_counter (Geometry.total_data_blocks geometry);
  let m = Engine.metrics eng in
  Metrics.pull_counter m "nvlog.stall_us" (fun () -> t.stall_us);
  Metrics.pull_counter m "nvlog.hard_dwell_us" (fun () -> t.hard_dwell_us);
  Metrics.pull_counter m "nvlog.exhausted" (fun () -> float_of_int t.exhausted);
  t

let create ?(nvlog_half = 16384) ?nvlog_watermarks ?cache_blocks ?(obs = Wafl_obs.Trace.disabled)
    ?flash ?(chaos = Fault.no_chaos) eng ~cost ~geometry () =
  build ?cache_blocks ~obs eng ~cost
    {
      p_disk = Disk.create ~codec:Layout.data_codec geometry;
      p_sb = None;
      p_nvlog = Nvlog.create ~half_capacity:nvlog_half ?watermarks:nvlog_watermarks ();
      p_flash = flash;
      p_chaos = chaos;
    }

let engine t = t.eng
let cost t = t.cost
let geometry t = t.geom
let disk t = t.pers.p_disk
let raid t ~rg = t.raids.(rg)
let raid_groups t = t.raids
let nvlog t = t.pers.p_nvlog
let chaos t = t.pers.p_chaos
let dirty_buffers t = File.buffered t.buffers
let counters t = t.counters
let agg_map t = t.agg_map

(* --- volumes and files --- *)

(* The NVRAM log is an append-only device with its own internal ordering
   (a lock in real WAFL whose cost the write path amortizes); appends
   from different affinities are legal, so model it as atomic. *)
let probe_log t = if Engine.sanitizing t.eng then Engine.probe_atomic t.eng ~shared:"fs.nvlog"

let log_append t entry =
  probe_log t;
  Nvlog.append (nvlog t) entry

let vol_slot t vid = if vid >= 0 && vid < Array.length t.vol_slots then t.vol_slots.(vid) else None
let volume t vid = match vol_slot t vid with Some s -> s.some_vol | None -> None

let volume_exn t vid =
  match volume t vid with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Aggregate: no volume %d" vid)

let volumes t = List.map snd t.vols

let region_count vvbn_space = (vvbn_space + vvbn_region_bits - 1) / vvbn_region_bits

let register_volume t vol =
  let vid = Volume.id vol in
  t.vols <- t.vols @ [ (vid, vol) ];
  if vid >= t.next_vol_id then t.next_vol_id <- vid + 1;
  let nregions = region_count (Volume.vvbn_space vol) in
  let free = Array.make nregions 0 in
  for r = 0 to nregions - 1 do
    let lo = r * vvbn_region_bits in
    let hi = min (Volume.vvbn_space vol - 1) (((r + 1) * vvbn_region_bits) - 1) in
    free.(r) <- hi - lo + 1
  done;
  Counters.set t.counters (vol_free_counter vid) (Volume.vvbn_space vol);
  if vid >= Array.length t.vol_slots then begin
    let slots = Array.make (max (vid + 1) (2 * Array.length t.vol_slots)) None in
    Array.blit t.vol_slots 0 slots 0 (Array.length t.vol_slots);
    t.vol_slots <- slots
  end;
  t.vol_slots.(vid) <-
    Some
      {
        some_vol = Some vol;
        free_vvbns = Counters.cell t.counters (vol_free_counter vid);
        region_free = free;
      }

let create_volume t ~vvbn_space =
  (* A file's block map keeps each vvbn in 32 bits. *)
  if vvbn_space >= 1 lsl 31 then
    invalid_arg "Aggregate.create_volume: vvbn_space must be below 2^31";
  let vid = t.next_vol_id in
  let vol = Volume.create ~id:vid ~vvbn_space in
  register_volume t vol;
  ignore (log_append t (Nvlog.Create_vol { vol = vid; vvbn_space }));
  vol

let create_file t ~vol =
  let v = volume_exn t vol in
  let fid = Volume.fresh_file_id v in
  let f = File.create_in t.buffers ~vol ~id:fid in
  Volume.add_file v f;
  ignore (log_append t (Nvlog.Create_file { vol; file = fid }));
  f

let delete_file t ~vol ~file =
  let v = volume_exn t vol in
  let f = Volume.file_exn v file in
  Volume.mark_deleted v f;
  ignore (log_append t (Nvlog.Delete_file { vol; file }))

let write t ~vol ~file ~fbn ~content =
  (* Consume this write's admission reservation (watermark mode only;
     zero and untouched otherwise). *)
  if t.log_inflight > 0 then t.log_inflight <- t.log_inflight - 1;
  if Nvlog.is_exhausted (nvlog t) then begin
    (* Typed graceful shed: nothing was logged or applied, so the client
       simply never gets an acknowledgement for this op.  Unreachable
       once watermark back-pressure is on — admission stops at the hard
       watermark with headroom to spare. *)
    t.exhausted <- t.exhausted + 1;
    `Log_exhausted
  end
  else begin
    let v = volume_exn t vol in
    let f = Volume.file_exn v file in
    File.write f ~fbn ~content;
    Volume.note_dirty v f;
    probe_log t;
    match Nvlog.append_write (nvlog t) ~vol ~file ~fbn ~content with
    | `Ok -> `Ok
    | `Half_full -> `Log_half_full
  end

let buffer_cache t = t.cache

(* All on-disk reads funnel through the RAID read path so that latent
   media errors and degraded groups are handled (reconstruction from the
   parity model) instead of silently returning the stored payload. *)
let lost pvbn =
  Corruption (Printf.sprintf "pvbn %d unrecoverable: media error in a degraded RAID group" pvbn)

let read_pvbn t pvbn =
  match Raid.read t.raids.(Geometry.rg_of t.geom pvbn) pvbn with
  | `Ok p -> Some p
  | `Degraded p -> Some p
  | `Absent -> None
  | `Lost -> raise (lost pvbn)

let ftls t = Array.to_list t.raids |> List.filter_map Raid.flash

(* Route tetris writes to flash write streams (no-op without a media
   model; installed by Walloc when the [streams] policy is on). *)
let set_stream_classifier t f = Array.iter (fun r -> Raid.set_stream_of r f) t.raids

(* Like [read] but reports whether the on-disk path hit the buffer cache;
   the caller charges the miss cost.  [`Buffered] means the block was
   served from a dirty buffer and never reached the disk path. *)
let read_cached_status t ~vol ~file ~fbn =
  let v = volume_exn t vol in
  let f = Volume.file_exn v file in
  match File.read_cached f ~fbn with
  | Some c -> (Some c, `Buffered)
  | None -> (
      match File.vvbn_of_fbn f fbn with
      | -1 -> (None, `Buffered)
      | vvbn -> (
          match Volume.pvbn_of_vvbn v vvbn with
          | -1 ->
              raise
                (Corruption
                   (Printf.sprintf "vol %d file %d fbn %d: vvbn %d has no container entry"
                      vol file fbn vvbn))
          | pvbn -> (
              if Engine.sanitizing t.eng then Engine.probe_atomic t.eng ~shared:"fs.buffer_cache";
              let status = if Buffer_cache.probe t.cache pvbn then `Hit else `Miss in
              (* A compact block is checked by its key, and no image is
                 built; one whose fields overflow the key is boxed. *)
              let key = Layout.key_of_data ~vol ~file ~fbn in
              match Raid.read_word t.raids.(Geometry.rg_of t.geom pvbn) pvbn ~key with
              | `Word content -> (Some content, status)
              | `Other (Layout.Data d) when d.vol = vol && d.file = file && d.fbn = fbn ->
                  (Some d.content, status)
              | `Other _ ->
                  raise
                    (Corruption
                       (Printf.sprintf
                          "vol %d file %d fbn %d: pvbn %d holds someone else's block" vol
                          file fbn pvbn))
              | `Absent ->
                  raise
                    (Corruption
                       (Printf.sprintf "vol %d file %d fbn %d: pvbn %d never written" vol
                          file fbn pvbn))
              | `Lost -> raise (lost pvbn))))

let read t ~vol ~file ~fbn = fst (read_cached_status t ~vol ~file ~fbn)

let set_cp_trigger t trigger = t.cp_trigger <- Some trigger
let request_cp t = match t.cp_trigger with Some trigger -> trigger () | None -> ()
let stall_time t = t.stall_us
let note_stall t dt = if dt > 0.0 then t.stall_us <- t.stall_us +. dt
let note_hard_dwell t dt = if dt > 0.0 then t.hard_dwell_us <- t.hard_dwell_us +. dt
let exhausted_writes t = t.exhausted

let wait_for_log_space t =
  note_hard_dwell t t.pers.p_chaos.hard_dwell_us;
  let nv = nvlog t in
  match Nvlog.watermarks nv with
  | None ->
      (* Legacy blanket throttle: park only while a CP is draining and
         the filling half is nearly full. *)
      if Nvlog.is_nearly_full nv && t.cp_in_progress then begin
        let w0 = Engine.now t.eng in
        while Nvlog.is_nearly_full nv && t.cp_in_progress do
          Sync.Waitq.wait t.log_space
        done;
        note_stall t (Engine.now t.eng -. w0)
      end
  | Some wm ->
      (* Watermark admission: fill counts NVRAM occupancy plus writes
         already admitted but not yet appended (their messages are in
         flight through the scheduler), so a burst cannot slip past the
         throttle before any of its appends land. *)
      probe_log t;
      let cap = float_of_int (Nvlog.capacity nv) in
      let fill () = float_of_int (Nvlog.total_pending nv + t.log_inflight) /. cap in
      if fill () >= wm.Nvlog.soft then begin
        let w0 = Engine.now t.eng in
        request_cp t;
        let h0 = Engine.now t.eng in
        while
          fill () >= wm.Nvlog.hard && (t.cp_in_progress || Option.is_some t.cp_trigger)
        do
          (* Re-arm the CP request each round: the commit that woke us may
             have left the log above the hard mark. *)
          request_cp t;
          Sync.Waitq.wait t.log_space
        done;
        note_hard_dwell t (Engine.now t.eng -. h0);
        (* Reserve before pacing, with no yield since the hard check: a
           writer sleeping out its pacing delay must already count
           against fill, or a wave of simultaneously-woken writers would
           all pass the hard check and overrun the log together.  With
           check-and-reserve atomic, admissions stop within one record
           of the hard mark and exhaustion is unreachable. *)
        t.log_inflight <- t.log_inflight + 1;
        (* Soft region: pace the admitted write against CP progress with a
           deterministic delay growing toward [pace] at the hard mark. *)
        let f = fill () in
        if f >= wm.Nvlog.soft then
          Engine.sleep
            (wm.Nvlog.pace
            *. Float.min 1.0 ((f -. wm.Nvlog.soft) /. (wm.Nvlog.hard -. wm.Nvlog.soft)));
        note_stall t (Engine.now t.eng -. w0)
      end
      else t.log_inflight <- t.log_inflight + 1

(* --- physical allocation state --- *)

(* Add [d] to the free count of the Allocation Area holding [pvbn]. *)
let adjust_aa_free t pvbn d =
  let counts = t.aa_free_tbl.(Geometry.rg_of t.geom pvbn) in
  let aa = Geometry.aa_of_dbn t.geom (Geometry.dbn_of t.geom pvbn) in
  counts.(aa) <- counts.(aa) + d

let commit_alloc_pvbn t pvbn =
  if Engine.sanitizing t.eng then Engine.probe_locked t.eng ~shared:(pvbn_domain pvbn) Race.Write;
  Bitmap_file.set t.agg_map pvbn;
  adjust_aa_free t pvbn (-1);
  t.free_cell := !(t.free_cell) - 1

let vol_acct t vol =
  match vol_slot t (Volume.id vol) with
  | Some s -> s
  | None -> invalid_arg "Aggregate: unregistered volume"

let snapshot_held t pvbn =
  let w = pvbn lsr 6 in
  w < Array.length t.snap_union
  && Int64.logand t.snap_union.(w) (Int64.shift_left 1L (pvbn land 63)) <> 0L

let rebuild_snap_union t =
  let len =
    List.fold_left (fun m s -> max m (Array.length (Snapshot.held_words s))) 0 t.snaps
  in
  let u = Array.make len 0L in
  List.iter
    (fun s ->
      Array.iteri (fun i x -> u.(i) <- Int64.logor u.(i) x) (Snapshot.held_words s))
    t.snaps;
  t.snap_union <- u

let commit_free_pvbn t pvbn =
  if Engine.sanitizing t.eng then begin
    Engine.probe_locked t.eng ~shared:(pvbn_domain pvbn) Race.Write;
    Engine.probe_atomic t.eng ~shared:"fs.buffer_cache"
  end;
  Bitmap_file.clear t.agg_map pvbn;
  (* The block's content is dead; a future occupant must read from disk. *)
  Buffer_cache.invalidate t.cache pvbn;
  if snapshot_held t pvbn then
    (* The block leaves the active tree but a snapshot still references
       it: not reusable, not free space. *)
    t.held_cell := !(t.held_cell) + 1
  else begin
    adjust_aa_free t pvbn 1;
    t.free_cell := !(t.free_cell) + 1
  end;
  Freed_set.add t.recently_freed pvbn;
  (* TRIM: the flash page backing a freed block is dead — without this
     the FTL's GC would keep relocating pages the file system no longer
     references, and the device-fill axis would only ever grow. *)
  if t.flash_on then
    Raid.trim t.raids.(Geometry.rg_of t.geom pvbn) pvbn

let pvbn_allocatable t pvbn =
  (not (Bitmap_file.mem t.agg_map pvbn))
  && (not (Freed_set.mem t.recently_freed pvbn))
  && not (snapshot_held t pvbn)

let region_free t vol = (vol_acct t vol).region_free

let commit_alloc_vvbn t ~vol vvbn =
  if Engine.sanitizing t.eng then
    Engine.probe_locked t.eng ~shared:(vvbn_domain ~vol:(Volume.id vol) vvbn) Race.Write;
  Bitmap_file.set (Volume.vol_map vol) vvbn;
  let acct = vol_acct t vol in
  let r = vvbn / vvbn_region_bits in
  acct.region_free.(r) <- acct.region_free.(r) - 1;
  decr acct.free_vvbns

let commit_free_vvbn t ~vol vvbn =
  if Engine.sanitizing t.eng then
    Engine.probe_locked t.eng ~shared:(vvbn_domain ~vol:(Volume.id vol) vvbn) Race.Write;
  Bitmap_file.clear (Volume.vol_map vol) vvbn;
  let acct = vol_acct t vol in
  let r = vvbn / vvbn_region_bits in
  acct.region_free.(r) <- acct.region_free.(r) + 1;
  Volume.note_freed_vvbn vol vvbn;
  incr acct.free_vvbns

let vvbn_allocatable t ~vol vvbn =
  ignore t;
  (not (Bitmap_file.mem (Volume.vol_map vol) vvbn)) && Volume.vvbn_reusable vol vvbn

let select_best counts ~exclude =
  let best = ref (-1) and best_free = ref 0 in
  Array.iteri
    (fun i free ->
      if free > !best_free && not (List.mem i exclude) then begin
        best := i;
        best_free := free
      end)
    counts;
  if !best < 0 then None else Some !best

let select_aa t ~rg ~exclude = select_best t.aa_free_tbl.(rg) ~exclude
let aa_free t ~rg ~aa = t.aa_free_tbl.(rg).(aa)
let select_vvbn_region t ~vol ~exclude = select_best (region_free t vol) ~exclude

(* --- consistency-point support --- *)

let cp_snapshot t =
  if t.cp_in_progress then invalid_arg "Aggregate.cp_snapshot: CP already running";
  t.cp_in_progress <- true;
  probe_log t;
  Nvlog.cp_begin (nvlog t);
  List.map (fun (_, v) -> (v, Volume.cp_snapshot v)) t.vols

let take_dirty_meta t =
  let acc = ref [] in
  (* Aggregate map last: relocating any other block dirties it. *)
  List.iter
    (fun idx -> acc := Agg_map_chunk { index = idx } :: !acc)
    (Bitmap_file.dirty_blocks_desc t.agg_map);
  Bitmap_file.clear_dirty t.agg_map;
  List.iter
    (fun (vid, v) ->
      List.iter
        (fun idx -> acc := Vol_map_chunk { vol = vid; index = idx } :: !acc)
        (Bitmap_file.dirty_blocks_desc (Volume.vol_map v));
      Bitmap_file.clear_dirty (Volume.vol_map v);
      List.iter
        (fun idx -> acc := Container_chunk { vol = vid; index = idx } :: !acc)
        (Volume.dirty_container_chunks_desc v);
      Volume.clear_dirty_containers v;
      List.iter
        (fun idx -> acc := Inode_chunk { vol = vid; index = idx } :: !acc)
        (Volume.dirty_inode_chunks_desc v);
      Volume.clear_dirty_inode_chunks v;
      (* Bmap dirt lives on files touched by this CP's cleaning. *)
      List.iter
        (fun f ->
          List.iter
            (fun idx ->
              acc := Bmap_block { vol = vid; file = File.id f; index = idx } :: !acc)
            (File.dirty_bmap_blocks_desc f);
          File.clear_dirty_bmap f)
        (Volume.cp_files v))
    (List.rev t.vols);
  !acc

(* The spare pool is shared by phase-B serialization messages running
   under different affinities and by the publish (a lock-free freelist
   in a real kernel), so model it as atomic. *)
let spares t =
  if Engine.sanitizing t.eng then Engine.probe_atomic t.eng ~shared:"fs.image_spares";
  t.image_spares

let meta_payload t = function
  | Bmap_block { vol; file; index } ->
      let f = Volume.file_exn (volume_exn t vol) file in
      Layout.Bmap { vol; file; index; entries = File.bmap_entries ~spares:(spares t) f index }
  | Inode_chunk { vol; index } ->
      Layout.Inode_chunk { vol; index; inodes = Volume.inode_chunk (volume_exn t vol) index }
  | Container_chunk { vol; index } ->
      Layout.Container
        {
          vol;
          index;
          entries = Volume.container_entries ~spares:(spares t) (volume_exn t vol) index;
        }
  | Vol_map_chunk { vol; index } ->
      if Engine.sanitizing t.eng then
        Engine.probe_locked t.eng ~shared:(vol_map_domain ~vol ~index) Race.Read;
      Layout.Vol_map
        {
          vol;
          index;
          words =
            Bitmap_file.words_of_block ~spares:(spares t) (Volume.vol_map (volume_exn t vol)) index;
        }
  | Agg_map_chunk { index } ->
      if Engine.sanitizing t.eng then Engine.probe_locked t.eng ~shared:(agg_map_domain ~index) Race.Read;
      Layout.Agg_map { index; words = Bitmap_file.words_of_block ~spares:(spares t) t.agg_map index }

(* Current on-disk location of a metafile block, or -1 when the owning
   volume/file no longer exists (e.g. deleted between enqueue and a CP
   repair round) or the block was never placed. *)
let meta_location t ref_ =
  let in_vol vol loc = match volume t vol with Some v -> loc v | None -> -1 in
  match ref_ with
  | Bmap_block { vol; file; index } ->
      in_vol vol (fun v ->
          match Volume.file v file with Some f -> File.bmap_location f index | None -> -1)
  | Inode_chunk { vol; index } -> in_vol vol (fun v -> Volume.inode_location v index)
  | Container_chunk { vol; index } -> in_vol vol (fun v -> Volume.container_location v index)
  | Vol_map_chunk { vol; index } ->
      in_vol vol (fun v -> Bitmap_file.location (Volume.vol_map v) index)
  | Agg_map_chunk { index } -> Bitmap_file.location t.agg_map index

let meta_set_location t ref_ pvbn =
  match ref_ with
  | Bmap_block { vol; file; index } ->
      let v = volume_exn t vol in
      let f = Volume.file_exn v file in
      let old = File.set_bmap_location f index pvbn in
      (* The inode record embeds bmap locations, so it changed too. *)
      Volume.mark_inode_dirty v f;
      old
  | Inode_chunk { vol; index } -> Volume.set_inode_location (volume_exn t vol) index pvbn
  | Container_chunk { vol; index } ->
      Volume.set_container_location (volume_exn t vol) index pvbn
  | Vol_map_chunk { vol; index } ->
      Bitmap_file.set_location (Volume.vol_map (volume_exn t vol)) index pvbn
  | Agg_map_chunk { index } -> Bitmap_file.set_location t.agg_map index pvbn

let make_superblock t =
  {
    Layout.generation = t.generation + 1;
    cp_count = t.cp_count + 1;
    vols = List.map (fun (_, v) -> Volume.to_vol_rec v) t.vols;
    aggmap_pvbns = Bitmap_file.locations t.agg_map;
    free_blocks = Counters.read t.counters free_counter;
    snap_roots =
      List.map
        (fun s -> (Snapshot.name s, { (Snapshot.superblock s) with Layout.snap_roots = [] }))
        t.snaps;
  }

let publish_superblock t sb =
  t.pers.p_sb <- Some sb;
  t.generation <- sb.Layout.generation;
  t.cp_count <- sb.Layout.cp_count;
  probe_log t;
  Nvlog.cp_commit (nvlog t);
  (* The published tree no longer references this CP's frees: they become
     allocatable, and a block no snapshot holds has no reader left, so
     its image leaves the disk and a packed image's buffer goes to the
     spare pool for the next CP's metafile images.  Every such image
     finished its write before this publish, so no queued write still
     carries it.  The spares this CP left undrawn go first, so the pool
     never holds more than one publish's images. *)
  let spares = spares t in
  Wafl_util.Packed.drop_spares spares;
  Freed_set.release t.recently_freed (fun pvbn ->
      if not (snapshot_held t pvbn) then
        match Disk.discard t.pers.p_disk pvbn with
        | Some (Layout.Bmap { entries = img; _ } | Layout.Container { entries = img; _ }) ->
            Wafl_util.Packed.recycle spares img
        | Some (Layout.Vol_map { words = img; _ } | Layout.Agg_map { words = img; _ }) ->
            Wafl_util.Packed.recycle spares img
        (* A compact data image has no buffer to hand back. *)
        | Some (Layout.Data _ | Layout.Inode_chunk _) | None -> ());
  List.iter
    (fun (_, v) ->
      Volume.clear_recent_frees v;
      Volume.cp_done v)
    t.vols;
  t.cp_in_progress <- false;
  ignore (Sync.Waitq.wake_all t.log_space)

let superblock t = t.pers.p_sb
let generation t = t.generation

(* --- snapshots --- *)

let snapshots t = t.snaps
let find_snapshot t name = List.find_opt (fun s -> Snapshot.name s = name) t.snaps

let create_snapshot t ~name =
  if t.cp_in_progress then invalid_arg "Aggregate.create_snapshot: CP in flight";
  (match t.pers.p_sb with
  | None -> invalid_arg "Aggregate.create_snapshot: no consistency point committed yet"
  | Some _ -> ());
  if find_snapshot t name <> None then
    invalid_arg (Printf.sprintf "Aggregate.create_snapshot: %S already exists" name);
  (* Between CPs the in-memory activemap equals the on-disk one, so its
     words are exactly the block set the last CP's tree references. *)
  let sb = Option.get t.pers.p_sb in
  let snap = Snapshot.make ~name ~sb ~words:(Bitmap_file.snapshot_words t.agg_map) in
  t.snaps <- t.snaps @ [ snap ];
  rebuild_snap_union t;
  snap

let read_snapshot t snap ~vol ~file ~fbn =
  Snapshot.read snap ~read_pvbn:(read_pvbn t) ~vol ~file ~fbn

(* Blocks that become reusable when [snap] goes away: held by it, free in
   the active map, and not held by any remaining snapshot.  The published
   superblock still lists [snap] until the next CP publishes, and a crash
   before then recovers it, so each such block is frozen with the next CP's
   frees: it is not reallocated before that publish, which then drops
   its image and recycles a packed image's buffer. *)
let delete_snapshot t snap =
  if t.cp_in_progress then invalid_arg "Aggregate.delete_snapshot: CP in flight";
  if not (List.memq snap t.snaps) then invalid_arg "Aggregate.delete_snapshot: unknown snapshot";
  t.snaps <- List.filter (fun s -> s != snap) t.snaps;
  rebuild_snap_union t;
  let words = Snapshot.held_words snap in
  let active = Bitmap_file.snapshot_words t.agg_map in
  let released = ref 0 in
  Array.iteri
    (fun w snap_word ->
      let candidates = Int64.logand snap_word (Int64.lognot active.(w)) in
      if candidates <> 0L then
        for i = 0 to 63 do
          if Wafl_util.Bitops.get candidates i then begin
            let pvbn = (w * 64) + i in
            if Geometry.vbn_valid t.geom pvbn && not (snapshot_held t pvbn) then begin
              adjust_aa_free t pvbn 1;
              if not (Freed_set.mem t.recently_freed pvbn) then
                Freed_set.add t.recently_freed pvbn;
              incr released
            end
          end
        done)
    words;
  Counters.add t.counters free_counter !released;
  Counters.add t.counters "snapshot_held_blocks" (- !released)

(* --- crash and recovery --- *)

let crash t = t.pers

let apply_op t = function
  | Nvlog.Create_vol { vol; vvbn_space } ->
      if volume t vol = None then begin
        let v = Volume.create ~id:vol ~vvbn_space in
        register_volume t v
      end
  | Nvlog.Create_file { vol; file } -> (
      let v = volume_exn t vol in
      match Volume.file v file with
      | Some _ -> ()
      | None -> Volume.add_file v (File.create_in t.buffers ~vol ~id:file))
  | Nvlog.Write { vol; file; fbn; content } ->
      let v = volume_exn t vol in
      let f = Volume.file_exn v file in
      File.write f ~fbn ~content;
      Volume.note_dirty v f
  | Nvlog.Delete_file { vol; file } ->
      let v = volume_exn t vol in
      Volume.mark_deleted v (Volume.file_exn v file)

(* Blocks in [lo, hi] free in the activemap but held by a snapshot: not
   free space, and not allocatable. *)
let held_only t ~lo ~hi =
  let n = ref 0 in
  if t.snaps <> [] then
    for pvbn = lo to hi do
      if (not (Bitmap_file.mem t.agg_map pvbn)) && snapshot_held t pvbn then incr n
    done;
  !n

(* The free space of one Allocation Area, as [aa_free_tbl] keeps it: the
   activemap's free blocks there, less the snapshot-held ones. *)
let aa_free_blocks t ~rg ~aa =
  let lo_dbn, hi_dbn = Geometry.aa_dbn_range t.geom ~aa in
  List.fold_left
    (fun free (drive, _) ->
      let lo = Geometry.vbn_of t.geom ~rg ~drive ~dbn:lo_dbn in
      let hi = Geometry.vbn_of t.geom ~rg ~drive ~dbn:hi_dbn in
      free + Bitmap_file.count_free_in t.agg_map ~lo ~hi - held_only t ~lo ~hi)
    0
    (Geometry.drives_of_rg t.geom ~rg)

(* The inode records of a volume's files in file-id order: the table
   that lists each file's block-map blocks. *)
let inode_recs t vol = List.map File.inode_rec (Volume.files (volume_exn t vol))

(* Load one checked metafile block of a published tree; an activemap
   chunk goes into [map]. *)
let load_block t map pvbn = function
  | Layout.Agg_map { index; words } ->
      Bitmap_file.load_block map index words;
      ignore (Bitmap_file.set_location map index pvbn)
  | Layout.Vol_map { vol; index; words } ->
      Bitmap_file.load_block (Volume.vol_map (volume_exn t vol)) index words
  | Layout.Container { vol; index; entries } ->
      Volume.load_container_chunk (volume_exn t vol) ~index ~entries
  | Layout.Inode_chunk { vol; inodes; _ } ->
      Volume.load_inode_chunk ~buffers:t.buffers (volume_exn t vol) inodes
  | Layout.Bmap { vol; file; index; entries } ->
      File.load_bmap_block (Volume.file_exn (volume_exn t vol) file) ~index ~entries
  | Layout.Data _ -> assert false (* [Blockref.fetch] checked the kind *)

(* Read the whole published tree, then each snapshot's activemap: the
   rest of a snapshot's tree is read on demand by [Snapshot.read]. *)
let load_tree t (sb : Layout.superblock) =
  let read = read_pvbn t in
  List.iter (fun vr -> register_volume t (Volume.of_vol_rec vr)) sb.vols;
  Blockref.iter sb ~inodes:(inode_recs t) (fun r pvbn ->
      load_block t t.agg_map pvbn (Blockref.fetch ~read r pvbn));
  List.iter
    (fun (name, (snap_sb : Layout.superblock)) ->
      let map = Bitmap_file.create ~bits:(Geometry.total_data_blocks t.geom) in
      Blockref.iter snap_sb ~inodes:(fun _ -> []) (fun r pvbn ->
          match r with
          | Agg_map_chunk _ -> load_block t map pvbn (Blockref.fetch ~read r pvbn)
          | _ -> ());
      let words = Bitmap_file.snapshot_words map in
      t.snaps <- t.snaps @ [ Snapshot.make ~name ~sb:snap_sb ~words ])
    sb.snap_roots

let recover eng ~cost pers =
  let t = build ~obs:Wafl_obs.Trace.disabled eng ~cost pers in
  let geom = t.geom in
  Option.iter
    (fun (sb : Layout.superblock) ->
      t.generation <- sb.generation;
      t.cp_count <- sb.cp_count;
      (try load_tree t sb with Corruption m -> raise (Corruption ("recovery: " ^ m)));
      (* The loaded tree is what the disk holds: none of it is dirty. *)
      Bitmap_file.clear_dirty t.agg_map;
      List.iter
        (fun (vid, v) ->
          let vmap = Volume.vol_map v and regions = region_free t v in
          Bitmap_file.clear_dirty vmap;
          Volume.clear_dirty_containers v;
          Volume.clear_dirty_inode_chunks v;
          List.iter File.clear_dirty_bmap (Volume.files v);
          Array.iteri
            (fun r _ ->
              let lo = r * vvbn_region_bits in
              let hi = min (Volume.vvbn_space v - 1) (lo + vvbn_region_bits - 1) in
              regions.(r) <- Bitmap_file.count_free_in vmap ~lo ~hi)
            regions;
          Counters.set t.counters (vol_free_counter vid) (Bitmap_file.free_count vmap))
        t.vols;
      rebuild_snap_union t;
      Array.iteri
        (fun rg counts -> Array.iteri (fun aa _ -> counts.(aa) <- aa_free_blocks t ~rg ~aa) counts)
        t.aa_free_tbl;
      let held = held_only t ~lo:0 ~hi:(Geometry.total_data_blocks geom - 1) in
      Counters.set t.counters "snapshot_held_blocks" held;
      Counters.set t.counters free_counter (Bitmap_file.free_count t.agg_map - held))
    pers.p_sb;
  (* Replay the surviving NVRAM log on top of the recovered tree. *)
  let ops = Nvlog.replay_ops pers.p_nvlog in
  Nvlog.recover_reset pers.p_nvlog;
  List.iter (apply_op t) ops;
  (* The FTL's L2P is volatile: re-derive device fill from the recovered
     activemap, as the real device rebuilds its map from NAND metadata.
     (Create-time prefill was already re-applied by Ftl.create; mapping a
     used pvbn over an aged page just remaps it.) *)
  if t.flash_on then begin
    let per_rg = Array.map (fun _ -> ref []) t.raids in
    for pvbn = Geometry.total_data_blocks geom - 1 downto 0 do
      if Bitmap_file.mem t.agg_map pvbn then begin
        let cell = per_rg.(Geometry.rg_of geom pvbn) in
        cell := Geometry.rg_offset geom pvbn :: !cell
      end
    done;
    Array.iteri
      (fun rg cell ->
        match Raid.flash t.raids.(rg) with
        | Some ftl -> Wafl_flash.Ftl.preload ftl !cell
        | None -> ())
      per_rg
  end;
  t

(* --- integrity checking --- *)

let fail_fsck fmt = Printf.ksprintf (fun s -> failwith ("fsck: " ^ s)) fmt

(* Each referenced block is claimed once in a dense array per block space
   (pvbns, each volume's vvbns) holding the claimant's code, -1 while
   unclaimed: a data block's [Layout.key_of_data], or a code below -1
   naming a metafile block (or a data block that overflows the key) in
   [named].  A data block allocates nothing; messages format on failure. *)
let fsck t =
  if t.cp_in_progress then fail_fsck "called with a CP in flight";
  let named = Hashtbl.create 64 in
  let name describe =
    let code = -2 - Hashtbl.length named in
    Hashtbl.add named code describe;
    code
  in
  let data vol file fbn = Printf.sprintf "vol %d file %d fbn %d" vol file fbn in
  let describe code =
    if code >= 0 then data (Layout.key_vol code) (Layout.key_file code) (Layout.key_fbn code)
    else Hashtbl.find named code ()
  in
  let data_code ~vol ~file ~fbn =
    match Layout.key_of_data ~vol ~file ~fbn with
    | -1 -> name (fun () -> data vol file fbn)
    | key -> key
  in
  let pvbn_claims = Array.make (Geometry.total_data_blocks t.geom) (-1) and claimed = ref 0 in
  let claim_pvbn pvbn code =
    if not (Geometry.vbn_valid t.geom pvbn) then
      fail_fsck "%s: invalid pvbn %d" (describe code) pvbn;
    if pvbn_claims.(pvbn) <> -1 then
      fail_fsck "pvbn %d claimed by both %s and %s" pvbn (describe pvbn_claims.(pvbn))
        (describe code);
    pvbn_claims.(pvbn) <- code;
    incr claimed;
    if not (Bitmap_file.mem t.agg_map pvbn) then
      fail_fsck "%s: pvbn %d not marked used in aggregate map" (describe code) pvbn
  in
  (* The metafile blocks: the tree these tables would publish, walked as
     recovery walks a published one. *)
  Blockref.iter (make_superblock t) ~inodes:(inode_recs t) (fun r pvbn ->
      claim_pvbn pvbn (name (fun () -> Blockref.to_string r)));
  List.iter
    (fun (vid, v) ->
      let vmap = Volume.vol_map v in
      let vvbn_claims = Array.make (Volume.vvbn_space v) (-1) and used = ref 0 in
      List.iter
        (fun f ->
          for fbn = 0 to File.nfbns f - 1 do
            let vvbn = File.vvbn_of_fbn f fbn in
            if vvbn >= 0 then begin
              let code = data_code ~vol:vid ~file:(File.id f) ~fbn in
              if vvbn >= Volume.vvbn_space v then
                fail_fsck "%s: vvbn %d out of range" (describe code) vvbn;
              if vvbn_claims.(vvbn) <> -1 then
                fail_fsck "vol %d vvbn %d claimed by both %s and %s" vid vvbn
                  (describe vvbn_claims.(vvbn)) (describe code);
              vvbn_claims.(vvbn) <- code;
              incr used;
              if not (Bitmap_file.mem vmap vvbn) then
                fail_fsck "vol %d: vvbn %d referenced but free in volume map" vid vvbn;
              let pvbn = Volume.pvbn_of_vvbn v vvbn in
              if pvbn < 0 then fail_fsck "vol %d: vvbn %d has no container entry" vid vvbn;
              claim_pvbn pvbn code
            end
          done)
        (Volume.files v);
      (* Every used vvbn must be referenced by exactly one (file, fbn). *)
      if Bitmap_file.used_count vmap <> !used then
        fail_fsck "vol %d: volume map says %d used vvbns but %d are referenced" vid
          (Bitmap_file.used_count vmap) !used;
      (* Container entries must exist only for used vvbns. *)
      for vvbn = 0 to Volume.vvbn_space v - 1 do
        let mapped = Volume.pvbn_of_vvbn v vvbn >= 0 in
        let used = Bitmap_file.mem vmap vvbn in
        if mapped <> used then
          fail_fsck "vol %d: vvbn %d container/%s activemap mismatch" vid vvbn
            (if used then "used" else "free")
      done;
      let counter = Counters.read t.counters (vol_free_counter vid) in
      if counter <> Bitmap_file.free_count vmap then
        fail_fsck "vol %d: free counter %d but volume map says %d" vid counter
          (Bitmap_file.free_count vmap))
    t.vols;
  (* No leaked pvbns: everything marked used must have been claimed. *)
  if Bitmap_file.used_count t.agg_map <> !claimed then
    fail_fsck "aggregate map says %d used pvbns but %d are referenced"
      (Bitmap_file.used_count t.agg_map) !claimed;
  let held = held_only t ~lo:0 ~hi:(Geometry.total_data_blocks t.geom - 1) in
  let counter = Counters.read t.counters free_counter in
  if counter <> Bitmap_file.free_count t.agg_map - held then
    fail_fsck "aggregate free counter %d but activemap says %d (%d snapshot-held)" counter
      (Bitmap_file.free_count t.agg_map) held;
  let held_counter = Counters.read t.counters "snapshot_held_blocks" in
  if held_counter <> held then
    fail_fsck "snapshot-held counter %d but %d blocks are held-only" held_counter held;
  Array.iteri
    (fun rg counts ->
      Array.iteri
        (fun aa n ->
          let free = aa_free_blocks t ~rg ~aa in
          if n <> free then
            fail_fsck "rg %d aa %d: summary says %d free, activemap says %d" rg aa n free)
        counts)
    t.aa_free_tbl
