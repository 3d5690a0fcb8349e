open Wafl_sim
open Wafl_fs
module Sched = Wafl_waffinity.Scheduler
module Aff = Wafl_waffinity.Affinity
module Isolation = Wafl_waffinity.Isolation
module Geometry = Wafl_storage.Geometry

type config = {
  parallel : bool;
  chunk : int;
  ranges : int;
  vol_buckets_per_cycle : int;
  stage_capacity : int;
}

let default_config =
  { parallel = true; chunk = 64; ranges = 8; vol_buckets_per_cycle = 8; stage_capacity = 64 }

type rg_state = {
  rg : int;
  drives : (int * int) list; (* (drive index, base vbn) *)
  mutable aa : int;
  mutable next_dbn : int; (* start of the next chunk within the AA *)
  mutable returned : int; (* buckets of the current cycle committed so far *)
  mutable refills_left : int;
  mutable filled : (int * int array) list; (* (drive, vbns) awaiting collective insertion *)
  mutable tetris : Tetris.t;
}

type vol_state = {
  vol : Volume.t;
  cache : Bucket.t Sync.Channel.t;
  mutable region : int;
  mutable next_bit : int; (* absolute vvbn cursor *)
}

type t = {
  eng : Engine.t;
  cost : Cost.t;
  sched : Sched.t;
  agg : Aggregate.t;
  cfg : config;
  obs : Wafl_obs.Trace.t;
  agg_id : int;
  phys_cache : Bucket.t Sync.Channel.t;
  rgs : rg_state array;
  vols : vol_state Wafl_util.Int_table.t; (* by volume id *)
  (* statistics *)
  mutable n_filled : int;
  mutable n_committed : int;
  mutable n_allocated : int;
  mutable n_freed : int;
  mutable n_touched : int;
  mutable n_messages : int;
  mutable pending_commits : int;
  commit_idle : Sync.Waitq.t;
}

let config t = t.cfg
let aggregate t = t.agg
let scheduler t = t.sched

(* --- affinity selection ------------------------------------------------ *)

let phys_affinity t ~sample_vbn =
  if t.cfg.parallel then
    Aff.Agg_range (t.agg_id, sample_vbn / Layout.bits_per_map_block mod t.cfg.ranges)
  else Aff.Aggregate_vbn t.agg_id

(* In serialized mode every infrastructure message — aggregate and volume
   side alike — shares the single Aggregate_vbn affinity instance, which
   is what "single-threaded write allocation infrastructure" means in the
   paper's instrumented kernel. *)
let virt_affinity t ~vol ~sample_vvbn =
  if t.cfg.parallel then
    Aff.Vol_range (t.agg_id, vol, sample_vvbn / Layout.bits_per_map_block mod t.cfg.ranges)
  else Aff.Aggregate_vbn t.agg_id

let post t ~affinity body =
  t.n_messages <- t.n_messages + 1;
  Sched.post t.sched ~affinity ~label:"infra" body

(* Commit-type messages are tracked so a CP can wait for every pending
   allocation/free to reach the metafiles before serializing them.  The
   pending counter is an atomic in a real kernel; the paired probes also
   carry the release/acquire edges a quiescer relies on. *)
let post_commit t ~affinity body =
  if Engine.sanitizing t.eng then Engine.probe_atomic t.eng ~shared:"infra.pending_commits";
  t.pending_commits <- t.pending_commits + 1;
  post t ~affinity (fun () ->
      body ();
      t.pending_commits <- t.pending_commits - 1;
      if Engine.sanitizing t.eng then Engine.probe_atomic t.eng ~shared:"infra.pending_commits";
      if t.pending_commits = 0 then ignore (Sync.Waitq.wake_all t.commit_idle))

let quiesce_commits t =
  while t.pending_commits > 0 do
    Sync.Waitq.wait t.commit_idle
  done;
  (* Acquire every committed message's history before the caller reads
     the metafiles those messages wrote. *)
  if Engine.sanitizing t.eng then Engine.probe_atomic t.eng ~shared:"infra.pending_commits"

(* --- cost helpers ------------------------------------------------------ *)

(* Distinct metafile blocks covered by a VBN list, plus its length, in
   one pass.  Every caller passes an ascending list already — buckets
   consume their VBN array front-to-back and stage drains are sorted —
   so the sort is normally skipped; the run-count over a sorted list is
   the distinct-block count either way. *)
let rec sorted_from prev = function
  | [] -> true
  | v :: rest -> prev <= v && sorted_from v rest

let blocks_and_len vbns =
  let vbns =
    match vbns with
    | [] -> vbns
    | v :: rest -> if sorted_from v rest then vbns else List.sort Int.compare vbns
  in
  let rec go acc len prev = function
    | [] -> (acc, len)
    | v :: rest ->
        let b = v / Layout.bits_per_map_block in
        if b = prev then go acc (len + 1) prev rest else go (acc + 1) (len + 1) b rest
  in
  go 0 0 (-1) vbns

(* Charges the per-block and per-bit update costs; returns the list
   length so callers need not re-walk the list to count it. *)
let charge_bit_updates t vbns =
  let blocks, len = blocks_and_len vbns in
  t.n_touched <- t.n_touched + blocks;
  Engine.consume
    ((float_of_int blocks *. t.cost.Cost.metafile_block_touch)
    +. (float_of_int len *. t.cost.Cost.bitmap_bit_update));
  len

(* Collect allocatable VBNs in [lo, hi] and charge scan cost. *)
let scan_range t map ~lo ~hi ~allocatable =
  let before = Bitmap_file.words_scanned map in
  let rec go acc pos =
    if pos > hi then acc
    else
      match Bitmap_file.find_free map ~lo ~hi ~start:pos with
      | None -> acc
      | Some v -> if allocatable v then go (v :: acc) (v + 1) else go acc (v + 1)
  in
  let found = List.rev (go [] lo) in
  let scanned = Bitmap_file.words_scanned map - before in
  Engine.consume (float_of_int scanned *. t.cost.Cost.bitmap_scan_word);
  found

(* --- physical bucket cycle (per RAID group) ---------------------------- *)

let rg_aa_exhausted t st =
  st.next_dbn + t.cfg.chunk - 1 > snd (Geometry.aa_dbn_range (Aggregate.geometry t.agg) ~aa:st.aa)

let advance_rg_cursor t st =
  if rg_aa_exhausted t st then begin
    let aa =
      match Aggregate.select_aa t.agg ~rg:st.rg ~exclude:[ st.aa ] with
      | Some aa -> aa
      | None -> st.aa (* every other AA is worse; wrap within the current one *)
    in
    st.aa <- aa;
    st.next_dbn <- fst (Geometry.aa_dbn_range (Aggregate.geometry t.agg) ~aa)
  end

(* Refill one drive's bucket for the current cycle; the last refill of the
   cycle builds the new tetris and collectively inserts all buckets. *)
let refill_drive t st ~drive ~base ~lo_dbn =
  let lo = base + lo_dbn in
  let hi = base + lo_dbn + t.cfg.chunk - 1 in
  Engine.consume (t.cost.Cost.bucket_fixed +. t.cost.Cost.summary_update);
  if Engine.sanitizing t.eng then
    for b = lo / Layout.bits_per_map_block to hi / Layout.bits_per_map_block do
      Engine.probe_locked t.eng ~shared:(Aggregate.agg_map_domain ~index:b) Race.Read
    done;
  let vbns =
    scan_range t (Aggregate.agg_map t.agg) ~lo ~hi ~allocatable:(fun v ->
        Aggregate.pvbn_allocatable t.agg v)
  in
  t.n_filled <- t.n_filled + 1;
  (* Per-cycle bookkeeping is shared across the group's Range affinities;
     its mutations are chained (last commit -> refills -> commits), which
     the paired probes express as release/acquire edges. *)
  if Engine.sanitizing t.eng then
    Engine.probe_atomic t.eng ~shared:(Printf.sprintf "infra.rg%d.cycle" st.rg);
  st.filled <- (drive, Array.of_list vbns) :: st.filled;
  st.refills_left <- st.refills_left - 1;
  if st.refills_left = 0 then begin
    let tetris =
      Tetris.create ~obs:t.obs t.eng ~cost:t.cost
        ~raid:(Aggregate.raid t.agg ~rg:st.rg)
        ~expected_buckets:(List.length st.filled)
    in
    st.tetris <- tetris;
    let buckets =
      List.rev_map
        (fun (drive, vbns) ->
          Bucket.make ~target:(Bucket.Phys { rg = st.rg; drive }) ~tetris ~vbns ())
        st.filled
    in
    st.filled <- [];
    (* Synchronized insertion: every drive's bucket enters the cache
       together (§IV-D, objective 3). *)
    List.iter (fun b -> Sync.Channel.send t.phys_cache b) buckets
  end

let start_rg_cycle t st =
  if Engine.sanitizing t.eng then
    Engine.probe_atomic t.eng ~shared:(Printf.sprintf "infra.rg%d.cycle" st.rg);
  advance_rg_cursor t st;
  let lo_dbn = st.next_dbn in
  st.next_dbn <- st.next_dbn + t.cfg.chunk;
  st.returned <- 0;
  st.refills_left <- List.length st.drives;
  st.filled <- [];
  List.iter
    (fun (drive, base) ->
      post t ~affinity:(phys_affinity t ~sample_vbn:(base + lo_dbn)) (fun () ->
          refill_drive t st ~drive ~base ~lo_dbn))
    st.drives

let commit_phys_bucket t st bucket =
  Engine.consume (t.cost.Cost.bucket_fixed +. t.cost.Cost.summary_update);
  if not (Bucket.is_committed bucket) then begin
    let used = Bucket.consumed bucket in
    let n = charge_bit_updates t used in
    List.iter (fun v -> Aggregate.commit_alloc_pvbn t.agg v) used;
    t.n_allocated <- t.n_allocated + n
  end
  else t.n_allocated <- t.n_allocated + Bucket.consumed_count bucket;
  t.n_committed <- t.n_committed + 1;
  if Engine.sanitizing t.eng then
    Engine.probe_atomic t.eng ~shared:(Printf.sprintf "infra.rg%d.cycle" st.rg);
  st.returned <- st.returned + 1;
  if st.returned = List.length st.drives then start_rg_cycle t st

(* --- virtual bucket handling (per volume) ------------------------------ *)

let vol_region_exhausted t vs =
  vs.next_bit + t.cfg.chunk - 1
  > min (Volume.vvbn_space vs.vol - 1) (((vs.region + 1) * Aggregate.vvbn_region_bits) - 1)

let advance_vol_cursor t vs =
  if vol_region_exhausted t vs then begin
    let region =
      match Aggregate.select_vvbn_region t.agg ~vol:vs.vol ~exclude:[ vs.region ] with
      | Some r -> r
      | None -> vs.region
    in
    vs.region <- region;
    vs.next_bit <- region * Aggregate.vvbn_region_bits
  end

(* Virtual buckets refill independently: volumes need no per-drive
   fairness, and independent refills keep the per-volume cache non-empty
   even while some buckets are parked with cleaner threads. *)
let scan_virt_chunk t vs ~lo ~hi =
  Engine.consume (t.cost.Cost.bucket_fixed +. t.cost.Cost.summary_update);
  if Engine.sanitizing t.eng then begin
    let vol = Volume.id vs.vol in
    for b = lo / Layout.bits_per_map_block to hi / Layout.bits_per_map_block do
      Engine.probe_locked t.eng ~shared:(Aggregate.vol_map_domain ~vol ~index:b) Race.Read
    done
  end;
  let vbns =
    scan_range t (Volume.vol_map vs.vol) ~lo ~hi ~allocatable:(fun v ->
        Aggregate.vvbn_allocatable t.agg ~vol:vs.vol v)
  in
  t.n_filled <- t.n_filled + 1;
  Sync.Channel.send vs.cache
    (Bucket.make ~target:(Bucket.Virt { vol = Volume.id vs.vol }) ~vbns:(Array.of_list vbns) ())

(* The cursor is cheap shared state (an atomic word in a real kernel),
   but the map scan it steers must run under the Range affinity that owns
   the map block being read.  [under] is the affinity the calling message
   was posted to: when the cursor stays inside that Range's block — the
   common case — the scan runs inline; when a region jump or chunk
   boundary moves it into another Range, the scan is reposted under the
   owning affinity instead of being run from the wrong one. *)
let refill_virt t vs ~under =
  if Engine.sanitizing t.eng then
    Engine.probe_atomic t.eng ~shared:(Printf.sprintf "vol/%d.cursor" (Volume.id vs.vol));
  advance_vol_cursor t vs;
  let lo = vs.next_bit in
  let hi = min (Volume.vvbn_space vs.vol - 1) (lo + t.cfg.chunk - 1) in
  vs.next_bit <- vs.next_bit + t.cfg.chunk;
  let want = virt_affinity t ~vol:(Volume.id vs.vol) ~sample_vvbn:lo in
  if want = under then scan_virt_chunk t vs ~lo ~hi
  else post t ~affinity:want (fun () -> scan_virt_chunk t vs ~lo ~hi)

let commit_virt_bucket t vs ~under bucket =
  Engine.consume (t.cost.Cost.bucket_fixed +. t.cost.Cost.summary_update);
  if not (Bucket.is_committed bucket) then begin
    let used = Bucket.consumed bucket in
    let n = charge_bit_updates t used in
    List.iter (fun v -> Aggregate.commit_alloc_vvbn t.agg ~vol:vs.vol v) used;
    t.n_allocated <- t.n_allocated + n
  end
  else t.n_allocated <- t.n_allocated + Bucket.consumed_count bucket;
  t.n_committed <- t.n_committed + 1;
  refill_virt t vs ~under

(* --- public operations -------------------------------------------------- *)

let vol_state t vol =
  match Wafl_util.Int_table.find_opt t.vols (Volume.id vol) with
  | Some vs -> vs
  | None -> invalid_arg (Printf.sprintf "Infra: volume %d not registered" (Volume.id vol))

let get_phys t =
  Engine.consume t.cost.Cost.lock_acquire;
  Sync.Channel.recv t.phys_cache

let get_virt t vol =
  Engine.consume t.cost.Cost.lock_acquire;
  Sync.Channel.recv (vol_state t vol).cache

let put t bucket =
  match Bucket.target bucket with
  | Bucket.Phys { rg; drive = _ } ->
      let st = t.rgs.(rg) in
      let sample = match Bucket.consumed bucket with v :: _ -> v | [] -> snd (List.hd st.drives) in
      post_commit t ~affinity:(phys_affinity t ~sample_vbn:sample) (fun () ->
          commit_phys_bucket t st bucket)
  | Bucket.Virt { vol } ->
      let vs =
        match Wafl_util.Int_table.find_opt t.vols vol with
        | Some vs -> vs
        | None -> invalid_arg "Infra.put: unknown volume"
      in
      let sample = match Bucket.consumed bucket with v :: _ -> v | [] -> 0 in
      let affinity = virt_affinity t ~vol ~sample_vvbn:sample in
      post_commit t ~affinity (fun () -> commit_virt_bucket t vs ~under:affinity bucket)

(* Split a free batch by Range affinity so independent ranges commit in
   parallel; within one message, charge per distinct metafile block.
   Groups come out in ascending range order (which fixes message post
   order), each keeping its VBNs in batch order. *)
let group_by_range t vbns =
  let groups = Array.make t.cfg.ranges [] in
  List.iter
    (fun v ->
      let r = v / Layout.bits_per_map_block mod t.cfg.ranges in
      groups.(r) <- v :: groups.(r))
    (List.rev vbns);
  List.filter (fun g -> g <> []) (Array.to_list groups)

(* A loose-accounting token is staged by its owning cleaner while commit
   messages flush it — concurrent by design, with atomic deltas in a real
   kernel.  Probing it as atomic both documents that and gives the
   detector the edge from the cleaner's staged history into the flush. *)
let token_probe t ~owner =
  match owner with
  | Some idx when Engine.sanitizing t.eng ->
      Engine.probe_atomic t.eng ~shared:(Printf.sprintf "cleaner/%d.token" idx)
  | _ -> ()

let commit_frees ?owner t ~target ~vbns ~token =
  if vbns <> [] then begin
    let flush_token () =
      token_probe t ~owner;
      let updates = Counters.flush (Aggregate.counters t.agg) token in
      Engine.consume (float_of_int updates *. t.cost.Cost.lock_acquire)
    in
    let groups =
      if t.cfg.parallel then group_by_range t vbns
      else [ vbns ] (* serialized infrastructure: one message *)
    in
    let first = ref true in
    List.iter
      (fun group ->
        let apply_token = !first in
        first := false;
        let affinity, commit_one =
          match target with
          | Stage.Phys ->
              ( phys_affinity t ~sample_vbn:(List.hd group),
                fun v -> Aggregate.commit_free_pvbn t.agg v )
          | Stage.Virt { vol } ->
              let v = Aggregate.volume_exn t.agg vol in
              ( virt_affinity t ~vol ~sample_vvbn:(List.hd group),
                fun vvbn -> Aggregate.commit_free_vvbn t.agg ~vol:v vvbn )
        in
        post_commit t ~affinity (fun () ->
            Engine.consume t.cost.Cost.stage_commit_fixed;
            let n = charge_bit_updates t group in
            List.iter commit_one group;
            t.n_freed <- t.n_freed + n;
            if apply_token then flush_token ()))
      groups
  end

(* Affinity under which a metafile block's serialization/write-out runs
   during a CP — the "most expensive infrastructure operations ... run in
   these Range affinities" optimization of §IV-B2. *)
let meta_affinity t (ref_ : Aggregate.meta_ref) =
  if not t.cfg.parallel then Aff.Aggregate_vbn t.agg_id
  else
    match ref_ with
    | Aggregate.Agg_map_chunk { index } -> Aff.Agg_range (t.agg_id, index mod t.cfg.ranges)
    | Aggregate.Vol_map_chunk { vol; index }
    | Aggregate.Container_chunk { vol; index }
    | Aggregate.Inode_chunk { vol; index } ->
        Aff.Vol_range (t.agg_id, vol, index mod t.cfg.ranges)
    | Aggregate.Bmap_block { vol; file; index } ->
        Aff.Vol_range (t.agg_id, vol, (file + index) mod t.cfg.ranges)

let post_meta t ~affinity body = post t ~affinity body

let flush_token ?owner t token =
  post_commit t ~affinity:(phys_affinity t ~sample_vbn:0) (fun () ->
      token_probe t ~owner;
      let updates = Counters.flush (Aggregate.counters t.agg) token in
      Engine.consume (float_of_int updates *. t.cost.Cost.lock_acquire))

let phys_cache_length t = Sync.Channel.length t.phys_cache
let virt_cache_length t vol = Sync.Channel.length (vol_state t vol).cache

(* --- construction ------------------------------------------------------- *)

let register_vol_state t vol =
  if not (Wafl_util.Int_table.mem t.vols (Volume.id vol)) then begin
    let vs =
      {
        vol;
        cache = Sync.Channel.create (Aggregate.engine t.agg);
        region =
          (match Aggregate.select_vvbn_region t.agg ~vol ~exclude:[] with
          | Some r -> r
          | None -> 0);
        next_bit = 0;
      }
    in
    vs.next_bit <- vs.region * Aggregate.vvbn_region_bits;
    Wafl_util.Int_table.replace t.vols (Volume.id vol) vs;
    (match Sched.isolation t.sched with
    | Some iso ->
        let vid = Volume.id vol in
        let nblocks =
          (Volume.vvbn_space vol + Layout.bits_per_map_block - 1) / Layout.bits_per_map_block
        in
        for b = 0 to nblocks - 1 do
          (* The owner mirrors [virt_affinity]: in serialized mode the
             whole infrastructure runs under Aggregate_vbn, so that is
             the affinity that guards the block. *)
          Isolation.register_owner iso
            ~shared:(Aggregate.vol_map_domain ~vol:vid ~index:b)
            (virt_affinity t ~vol:vid ~sample_vvbn:(b * Layout.bits_per_map_block))
        done
    | None -> ());
    for _ = 1 to t.cfg.vol_buckets_per_cycle do
      let affinity = virt_affinity t ~vol:(Volume.id vol) ~sample_vvbn:vs.next_bit in
      post t ~affinity (fun () -> refill_virt t vs ~under:affinity)
    done
  end

let register_volume t vol = register_vol_state t vol

let create ?(obs = Wafl_obs.Trace.disabled) sched agg cfg =
  if cfg.chunk <= 0 || cfg.ranges <= 0 || cfg.vol_buckets_per_cycle <= 0 then
    invalid_arg "Infra.create: bad configuration";
  let eng = Aggregate.engine agg in
  let geom = Aggregate.geometry agg in
  let rgs =
    Array.init (Wafl_storage.Geometry.raid_group_count geom) (fun rg ->
        {
          rg;
          drives = Wafl_storage.Geometry.drives_of_rg geom ~rg;
          aa = 0;
          next_dbn = 0;
          returned = 0;
          refills_left = 0;
          filled = [];
          tetris =
            Tetris.create ~obs eng ~cost:(Aggregate.cost agg) ~raid:(Aggregate.raid agg ~rg)
              ~expected_buckets:0;
        })
  in
  let t =
    {
      eng;
      cost = Aggregate.cost agg;
      sched;
      agg;
      cfg;
      obs;
      agg_id = 0;
      phys_cache = Sync.Channel.create eng;
      rgs;
      vols = Wafl_util.Int_table.create ();
      n_filled = 0;
      n_committed = 0;
      n_allocated = 0;
      n_freed = 0;
      n_touched = 0;
      n_messages = 0;
      pending_commits = 0;
      commit_idle = Sync.Waitq.create eng;
    }
  in
  (match Sched.isolation sched with
  | Some iso ->
      let nblocks =
        (Wafl_storage.Geometry.total_data_blocks geom + Layout.bits_per_map_block - 1)
        / Layout.bits_per_map_block
      in
      for b = 0 to nblocks - 1 do
        Isolation.register_owner iso
          ~shared:(Aggregate.agg_map_domain ~index:b)
          (phys_affinity t ~sample_vbn:(b * Layout.bits_per_map_block))
      done
  | None -> ());
  Array.iter
    (fun st ->
      (match Aggregate.select_aa agg ~rg:st.rg ~exclude:[] with
      | Some aa ->
          st.aa <- aa;
          st.next_dbn <- fst (Wafl_storage.Geometry.aa_dbn_range geom ~aa)
      | None -> ());
      start_rg_cycle t st)
    t.rgs;
  List.iter (register_vol_state t) (Aggregate.volumes agg);
  t

let live_tetrises t = Array.to_list t.rgs |> List.map (fun st -> st.tetris)

let dump t out =
  Array.iter
    (fun st ->
      Printf.fprintf out "  rg %d: aa=%d next_dbn=%d returned=%d/%d refills_left=%d\n%!"
        st.rg st.aa st.next_dbn st.returned (List.length st.drives) st.refills_left)
    t.rgs;
  Wafl_util.Int_table.bindings t.vols
  |> List.iter (fun (vid, vs) ->
         Printf.fprintf out "  vol %d: cache=%d region=%d next_bit=%d\n%!" vid
           (Sync.Channel.length vs.cache) vs.region vs.next_bit);
  Printf.fprintf out "  infra: physcache=%d pending_commits=%d messages=%d\n%!"
    (Sync.Channel.length t.phys_cache) t.pending_commits t.n_messages

let buckets_filled t = t.n_filled
let buckets_committed t = t.n_committed
let vbns_allocated t = t.n_allocated
let vbns_freed t = t.n_freed
let metafile_blocks_touched t = t.n_touched
let messages_posted t = t.n_messages
