(* Per-layer micro-benchmarks: each times one layer's public functions
   directly, with inputs shaped after the workload the layer serves.
   Bechamel fits ns per staged call; a call that batches [n] operations
   reports ns per operation. *)

open Bechamel
module Engine = Wafl_sim.Engine
module Cost = Wafl_sim.Cost
module Geometry = Wafl_storage.Geometry
module Raid = Wafl_storage.Raid
module Layout = Wafl_fs.Layout

let payload fbn = Layout.Data { vol = 0; file = 0; fbn; content = Int64.of_int fbn }

(* One RAID group of 10 data + 2 parity drives, as in the paper geometry. *)
let raid_group eng =
  let geom =
    Geometry.create ~drive_blocks:65536 ~aa_stripes:1024 ~raid_groups:[ (10, 2) ] ()
  in
  Raid.create eng ~cost:Cost.default ~disk:(Wafl_storage.Disk.create geom) ~rg:0

(* seq_write fills a tetris to a full stripe: ~1 280 blocks per I/O. *)
let io_blocks = 1280

(* Engine dispatch: 20 fibers, each charging CPU and yielding 8 times, as
   client fibers do between Waffinity messages.  Counted per dispatch. *)
let dispatch () =
  let eng = Engine.create ~cores:20 () in
  let call () =
    for _ = 1 to 20 do
      ignore
        (Engine.spawn eng ~label:"client" (fun () ->
             for _ = 1 to 8 do
               Engine.consume 1.0;
               Engine.yield ()
             done))
    done;
    Engine.run eng
  in
  let before = Engine.context_switches eng in
  call ();
  (Engine.context_switches eng - before, call)

(* Waffinity post + grant + completion of client-write messages spread
   over the Stripe affinities of two volumes.  Counted per message. *)
let post_grant () =
  let eng = Engine.create ~cores:20 () in
  let sched = Wafl_waffinity.Scheduler.create eng ~cost:Cost.default () in
  let n = 64 in
  let call () =
    for i = 0 to n - 1 do
      Wafl_waffinity.Scheduler.post sched
        ~affinity:(Wafl_waffinity.Affinity.Stripe (0, i land 1, i lsr 1 land 15))
        ~label:"client"
        (fun () -> Engine.consume 1.0)
    done;
    Engine.run eng
  in
  (n, call)

(* Bucket USE: take a VBN and enqueue the buffer into the bucket's
   tetris.  A fresh 64-VBN bucket (and tetris) per call keeps memory
   bounded.  Counted per USE. *)
let bucket_use () =
  let eng = Engine.create ~cores:1 () in
  let raid = raid_group eng in
  let n = 64 in
  let base = ref 0 in
  let call () =
    let tetris =
      Wafl_core.Tetris.create eng ~cost:Cost.default ~raid ~expected_buckets:max_int
    in
    let vbns = Array.init n (fun i -> !base + i) in
    base := (!base + n) mod 500_000;
    let b =
      Wafl_core.Bucket.make ~target:(Wafl_core.Bucket.Phys { rg = 0; drive = 0 }) ~tetris ~vbns ()
    in
    for i = 0 to n - 1 do
      ignore (Wafl_core.Api.use b ~payload:(payload i))
    done
  in
  (n, call)

(* Tetris flush: enqueue a full stripe, return the last bucket (which
   submits the I/O to RAID) and let the group service it.  Counted per
   flushed I/O. *)
let tetris_flush () =
  let eng = Engine.create ~cores:1 () in
  let raid = raid_group eng in
  let call () =
    ignore
      (Engine.spawn eng (fun () ->
           let t = Wafl_core.Tetris.create eng ~cost:Cost.default ~raid ~expected_buckets:1 in
           for i = 0 to io_blocks - 1 do
             Wafl_core.Tetris.enqueue t ~vbn:i ~payload:(payload i)
           done;
           Wafl_core.Tetris.bucket_done t));
    Engine.run eng
  in
  (1, call)

(* RAID submit and service of one full-stripe I/O.  Counted per I/O. *)
let raid_submit () =
  let eng = Engine.create ~cores:1 () in
  let raid = raid_group eng in
  let writes = List.init io_blocks (fun i -> (i, payload i)) in
  let call () =
    ignore (Engine.spawn eng (fun () -> Raid.submit raid ~writes ~on_complete:ignore));
    Engine.run eng
  in
  (1, call)

(* Activemap find_free on a 1 Mi-bit map where rand_write's scattered
   frees left one bit in eight clear; the cursor walks on like the
   allocator's.  Counted per search. *)
let find_free () =
  let bits = 1 lsl 20 in
  let map = Wafl_fs.Bitmap_file.create ~bits in
  let rng = Wafl_util.Rng.create ~seed:7 in
  for b = 0 to bits - 1 do
    if Wafl_util.Rng.int rng 8 <> 0 then Wafl_fs.Bitmap_file.set map b
  done;
  let cursor = ref 0 in
  let call () =
    match Wafl_fs.Bitmap_file.find_free map ~lo:0 ~hi:(bits - 1) ~start:!cursor with
    | Some b -> cursor := (b + 1) land (bits - 1)
    | None -> cursor := 0
  in
  (1, call)

(* Buffer-cache probe: oltp_open's 655 Ki-block working set in its 1 Mi
   cache, so every random probe hits.  Counted per probe. *)
let cache_probe () =
  let working_set = 40 * 16384 in
  let cache = Wafl_fs.Buffer_cache.create ~capacity:(1 lsl 20) in
  for b = 0 to working_set - 1 do
    ignore (Wafl_fs.Buffer_cache.probe cache b)
  done;
  let rng = Wafl_util.Rng.create ~seed:7 in
  let keys = Array.init 65536 (fun _ -> Wafl_util.Rng.int rng working_set) in
  let i = ref 0 in
  let call () =
    ignore (Wafl_fs.Buffer_cache.probe cache keys.(!i));
    i := (!i + 1) land 65535
  in
  (1, call)

(* FTL host write at 85% device fill, seasoned to steady state, with
   flash_gc's skew (10% of the pages take 90% of the writes) on two
   streams; the background GC runs inside the timed call.  Counted per
   programmed page. *)
let host_write () =
  let eng = Engine.create ~cores:1 () in
  let lpns = 1 lsl 16 in
  let cfg =
    { Wafl_flash.Ftl.default_config with Wafl_flash.Ftl.prefill = 0.85; op_ratio = 0.10; streams = 2 }
  in
  let ftl = Wafl_flash.Ftl.create eng ~cfg ~lpns ~rg:0 in
  let aged = int_of_float (0.85 *. float_of_int lpns) in
  let hot = aged / 10 in
  let rng = Wafl_util.Rng.create ~seed:7 in
  let n = 64 in
  let batches =
    Array.init 256 (fun _ ->
        List.init n (fun _ ->
            if Wafl_util.Rng.float rng 1.0 < 0.9 then (Wafl_util.Rng.int rng hot, 1)
            else (hot + Wafl_util.Rng.int rng (aged - hot), 0)))
  in
  let i = ref 0 in
  let call () =
    let batch = batches.(!i) in
    i := (!i + 1) land 255;
    ignore (Engine.spawn eng ~label:"io" (fun () -> Wafl_flash.Ftl.host_write ftl batch));
    Engine.run eng
  in
  (n, call)

(* Telemetry's per-write hook on two volumes.  Counted per write. *)
let rollup_observe_write () =
  let eng = Engine.create ~cores:1 () in
  let roll = Wafl_obs.Rollup.create eng in
  let i = ref 0 in
  let call () =
    incr i;
    Wafl_obs.Rollup.observe_write roll ~vol:(!i land 1) (float_of_int (20 + (!i land 63)))
  in
  (1, call)

let all =
  [
    ("sim.micro.dispatch_ns", dispatch);
    ("waffinity.micro.post_grant_ns", post_grant);
    ("core.micro.bucket_use_ns", bucket_use);
    ("core.micro.tetris_flush_ns", tetris_flush);
    ("fs.micro.find_free_ns", find_free);
    ("fs.micro.cache_probe_ns", cache_probe);
    ("storage.micro.raid_submit_ns", raid_submit);
    ("flash.micro.host_write_ns", host_write);
    ("obs.micro.rollup_observe_write_ns", rollup_observe_write);
  ]

(* ns per operation for every micro-benchmark, each given [quota] seconds. *)
let run ~quota =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  List.map
    (fun (name, make) ->
      let ops, call = make () in
      let test = Test.make ~name (Staged.stage call) in
      let raw = Benchmark.all cfg [ instance ] test in
      let fit = Hashtbl.find (Analyze.all ols instance raw) name in
      let ns = match Analyze.OLS.estimates fit with Some (e :: _) -> e | _ -> Float.nan in
      (name, ns /. float_of_int ops))
    all
