open Wafl_sim

type t = {
  eng : Engine.t;
  raid : Wafl_fs.Layout.block Wafl_storage.Raid.t;
  obs : Wafl_obs.Trace.t;
  obs_on : bool;
  m_fill : Metrics.histo;
  mutable pending : (int * Wafl_fs.Layout.block) list; (* newest first *)
  mutable pending_count : int;
  mutable outstanding : int;
  mutable ios : int;
  mutable blocks : int;
}

let create ?(obs = Wafl_obs.Trace.disabled) eng ~cost ~raid ~expected_buckets =
  ignore cost;
  if expected_buckets < 0 then invalid_arg "Tetris.create: negative bucket count";
  {
    eng;
    raid;
    obs;
    obs_on = Wafl_obs.Trace.enabled obs;
    m_fill = Metrics.histogram (Engine.metrics eng) "tetris.fill_blocks";
    pending = [];
    pending_count = 0;
    outstanding = expected_buckets;
    ios = 0;
    blocks = 0;
  }

(* The tetris dispatch structure is lock-protected in real WAFL (the I/O
   dispatch lock, whose cost the write path amortizes); writers from any
   affinity or cleaner may enqueue, so model it as atomic. *)
let dispatch_probe t =
  if Engine.sanitizing t.eng then
    Engine.probe_atomic t.eng
      ~shared:(Printf.sprintf "tetris.rg%d" (Wafl_storage.Raid.rg t.raid))

let enqueue t ~vbn ~payload =
  dispatch_probe t;
  t.pending <- (vbn, payload) :: t.pending;
  t.pending_count <- t.pending_count + 1

let pending_blocks t = t.pending_count

let submit_now t =
  dispatch_probe t;
  if t.pending_count > 0 then begin
    Metrics.observe t.m_fill (float_of_int t.pending_count);
    let writes = List.rev t.pending in
    let blocks = t.pending_count in
    t.pending <- [];
    t.ios <- t.ios + 1;
    t.blocks <- t.blocks + blocks;
    t.pending_count <- 0;
    let submit () = Wafl_storage.Raid.submit t.raid ~writes ~on_complete:(fun () -> ()) in
    if t.obs_on then
      Wafl_obs.Trace.with_span t.obs ~cat:"tetris" ~name:"stripe fill"
        ~num_args:[ ("blocks", float_of_int blocks) ]
        submit
    else submit ()
  end

let bucket_done t =
  dispatch_probe t;
  t.outstanding <- t.outstanding - 1;
  if t.outstanding <= 0 then submit_now t

let ios_submitted t = t.ios
let blocks_submitted t = t.blocks

(* Temperature classifier for the flash [streams] policy: every metafile
   class is hot (re-dirtied each CP), and a data block is hot when its
   observed rewrite interval — CP-placement count since this (vol, file,
   fbn) was last written — is shorter than the number of tracked blocks,
   i.e. shorter than the interval a uniformly-rewritten block would show.
   Segregating short-lived from long-lived pages keeps erase blocks
   death-time-homogeneous, which is what lowers GC write amplification
   ("Enlightening Flash Storage to Stream Writes by Objects").  The
   tracker is the write-allocator's equivalent of the per-write stream
   hints a host passes to a multi-stream SSD; it is deterministic, so a
   seeded run classifies identically on replay. *)
let make_temperature_stream () : Wafl_fs.Layout.block -> int =
  let module T = Wafl_util.Int_table in
  let find_or_add tbl k make =
    if T.mem tbl k then T.find tbl k
    else begin
      let v = make () in
      T.replace tbl k v;
      v
    end
  in
  (* Last placement stamp by vol, file and fbn; -1 for never placed. *)
  let last = T.create () in
  let tracked = ref 0 and n = ref 0 in
  function
  | Wafl_fs.Layout.Data { vol; file; fbn; _ } ->
      incr n;
      let files = find_or_add last vol T.create in
      let stamps = find_or_add files file (fun () -> Wafl_util.Intvec.create ~default:(-1) ()) in
      let prev = Wafl_util.Intvec.get stamps fbn in
      let hot = prev >= 0 && !n - prev < !tracked in
      if prev < 0 then incr tracked;
      Wafl_util.Intvec.set stamps fbn !n;
      if hot then 1 else 0
  | Wafl_fs.Layout.Bmap _ | Wafl_fs.Layout.Inode_chunk _ | Wafl_fs.Layout.Container _
  | Wafl_fs.Layout.Vol_map _ | Wafl_fs.Layout.Agg_map _ ->
      1
