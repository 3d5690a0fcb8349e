open Wafl_sim
module Raid = Wafl_storage.Raid

type t = {
  eng : Engine.t;
  raid : Wafl_fs.Layout.block Raid.t;
  obs : Wafl_obs.Trace.t;
  obs_on : bool;
  m_fill : Metrics.histo;
  mutable batch : Wafl_fs.Layout.block Raid.batch option; (* taken at the first enqueue *)
  mutable outstanding : int;
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
    batch = None;
    outstanding = expected_buckets;
  }

(* The tetris dispatch structure is lock-protected in real WAFL (the I/O
   dispatch lock, whose cost the write path amortizes); writers from any
   affinity or cleaner may enqueue, so model it as atomic. *)
let dispatch_probe t =
  if Engine.sanitizing t.eng then
    Engine.probe_atomic t.eng ~shared:(Printf.sprintf "tetris.rg%d" (Raid.rg t.raid))

let batch t =
  match t.batch with
  | Some b -> b
  | None ->
      let b = Raid.batch t.raid in
      t.batch <- Some b;
      b

let enqueue t ~vbn ~payload =
  dispatch_probe t;
  Raid.add (batch t) vbn payload

let[@inline] enqueue_data t ~vbn ~vol ~file ~fbn ~content =
  dispatch_probe t;
  Wafl_fs.Layout.add_data (batch t) vbn ~vol ~file ~fbn ~content

let submit_now t =
  dispatch_probe t;
  match t.batch with
  | Some b when Raid.batch_length b > 0 ->
      let blocks = Raid.batch_length b in
      Metrics.observe t.m_fill (float_of_int blocks);
      t.batch <- None;
      let submit () = Raid.submit_batch t.raid b ~on_complete:(fun () -> ()) in
      if t.obs_on then
        Wafl_obs.Trace.with_span t.obs ~cat:"tetris" ~name:"stripe fill"
          ~num_args:[ ("blocks", float_of_int blocks) ]
          submit
      else submit ()
  | Some _ | None -> ()

let bucket_done t =
  dispatch_probe t;
  t.outstanding <- t.outstanding - 1;
  if t.outstanding <= 0 then submit_now t

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
let make_temperature_stream () : int -> Wafl_fs.Layout.block option -> int =
  let module T = Wafl_util.Int_table in
  let find_or_add tbl k make =
    if T.mem tbl k then T.find tbl k
    else begin
      let v = make () in
      T.replace tbl k v;
      v
    end
  in
  (* Last placement stamp by vol, file and fbn; -1 for never placed.  A
     stamp counts every data block the run places, so it outgrows the
     32-bit entries of an [Intvec]: each file's stamps are a plain [int
     array], grown by doubling. *)
  let last = T.create () in
  let tracked = ref 0 and n = ref 0 in
  let data ~vol ~file ~fbn =
    incr n;
    let files = find_or_add last vol T.create in
    let stamps = find_or_add files file (fun () -> ref [||]) in
    let a = !stamps in
    let prev = if fbn < Array.length a then a.(fbn) else -1 in
    let hot = prev >= 0 && !n - prev < !tracked in
    if prev < 0 then incr tracked;
    if fbn >= Array.length a then begin
      let b = Array.make (max (fbn + 1) (2 * Array.length a)) (-1) in
      Array.blit a 0 b 0 (Array.length a);
      stamps := b
    end;
    !stamps.(fbn) <- !n;
    if hot then 1 else 0
  in
  fun key boxed ->
    match boxed with
    | None ->
        let open Wafl_fs.Layout in
        data ~vol:(key_vol key) ~file:(key_file key) ~fbn:(key_fbn key)
    | Some (Wafl_fs.Layout.Data { vol; file; fbn; _ }) -> data ~vol ~file ~fbn
    | Some
        ( Wafl_fs.Layout.Bmap _ | Wafl_fs.Layout.Inode_chunk _ | Wafl_fs.Layout.Container _
        | Wafl_fs.Layout.Vol_map _ | Wafl_fs.Layout.Agg_map _ ) ->
        1
