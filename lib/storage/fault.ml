type disk_failure = {
  fail_rg : int;
  fail_drive : int;
  fail_at : float;
  mutable tripped : bool;
  mutable rebuilt_to : int;
  mutable rebuild_done : bool;
}

type t = {
  rng : Wafl_util.Rng.t;
  media : (int, unit) Hashtbl.t;
  write_errs : (int, unit) Hashtbl.t;
  mutable transient_p : float;
  max_retries : int;
  torn_tail : int;
  mutable failures : disk_failure list;
  crash_at : float;
  (* counters *)
  mutable n_media : int;
  mutable n_degraded : int;
  mutable n_retries : int;
  mutable n_rebuilt : int;
  mutable n_unrecoverable : int;
}

let create ?(media_errors = []) ?(write_errors = []) ?(transient_p = 0.0) ?(max_retries = 6)
    ?(torn_tail = 0) ?(disk_failures = []) ?(crash_at = 0.0) ~seed () =
  if transient_p < 0.0 || transient_p >= 1.0 then
    invalid_arg "Fault.create: transient_p must be in [0, 1)";
  if max_retries < 0 then invalid_arg "Fault.create: negative max_retries";
  if torn_tail < 0 then invalid_arg "Fault.create: negative torn_tail";
  let media = Hashtbl.create 16 and write_errs = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace media v ()) media_errors;
  List.iter (fun v -> Hashtbl.replace write_errs v ()) write_errors;
  {
    rng = Wafl_util.Rng.create ~seed;
    media;
    write_errs;
    transient_p;
    max_retries;
    torn_tail;
    failures =
      List.map
        (fun (rg, drive, at) ->
          { fail_rg = rg; fail_drive = drive; fail_at = at; tripped = false; rebuilt_to = 0;
            rebuild_done = false })
        disk_failures;
    crash_at;
    n_media = 0;
    n_degraded = 0;
    n_retries = 0;
    n_rebuilt = 0;
    n_unrecoverable = 0;
  }

(* A seeded plan: crash point in the back 70% of the horizon; then either
   a handful of latent media errors or one whole-disk failure (never both,
   so single-parity reconstruction always has enough surviving drives),
   plus independent transient-failure, write-error and torn-tail choices. *)
let random ~seed ~total_vbns ~raid_groups ~horizon =
  let r = Wafl_util.Rng.create ~seed in
  let crash_at = (0.3 +. Wafl_util.Rng.float r 0.7) *. horizon in
  let mode = Wafl_util.Rng.int r 10 in
  let media_errors =
    if mode < 3 then List.init (4 + Wafl_util.Rng.int r 12) (fun _ -> Wafl_util.Rng.int r total_vbns)
    else []
  in
  let disk_failures =
    if mode >= 3 && mode < 6 then begin
      let rg = Wafl_util.Rng.int r (List.length raid_groups) in
      let data, _ = List.nth raid_groups rg in
      let drive = Wafl_util.Rng.int r data in
      [ (rg, drive, Wafl_util.Rng.float r crash_at) ]
    end
    else []
  in
  let transient_p = if Wafl_util.Rng.bool r then 0.0 else 0.01 +. Wafl_util.Rng.float r 0.06 in
  let write_errors =
    if Wafl_util.Rng.int r 4 = 0 then
      List.init (1 + Wafl_util.Rng.int r 3) (fun _ -> Wafl_util.Rng.int r total_vbns)
    else []
  in
  let torn_tail = Wafl_util.Rng.int r 4 in
  create ~media_errors ~write_errors ~transient_p ~torn_tail ~disk_failures ~crash_at
    ~seed:(seed lxor 0x5bd1e995) ()

let media_error t vbn = Hashtbl.mem t.media vbn
let clear_media_error t vbn = Hashtbl.remove t.media vbn
let write_fails t vbn = Hashtbl.mem t.write_errs vbn

let transient_now t =
  t.transient_p > 0.0 && Wafl_util.Rng.float t.rng 1.0 < t.transient_p

let max_retries t = t.max_retries
let torn_tail t = t.torn_tail
let crash_at t = t.crash_at

let failure_for t ~rg ~now =
  List.find_opt
    (fun f ->
      f.fail_rg = rg && (not f.rebuild_done) && (f.tripped || f.fail_at <= now))
    t.failures
  |> Option.map (fun f ->
         f.tripped <- true;
         f)

let add_media_error t vbn = Hashtbl.replace t.media vbn ()
let add_write_error t vbn = Hashtbl.replace t.write_errs vbn ()

let set_transient_p t p =
  if p < 0.0 || p >= 1.0 then invalid_arg "Fault.set_transient_p: must be in [0, 1)";
  t.transient_p <- p

let fail_disk t ~rg ~drive ~at =
  t.failures <-
    { fail_rg = rg; fail_drive = drive; fail_at = at; tripped = false; rebuilt_to = 0;
      rebuild_done = false }
    :: t.failures

let note_media_error t = t.n_media <- t.n_media + 1
let note_degraded_read t = t.n_degraded <- t.n_degraded + 1
let note_transient_retry t = t.n_retries <- t.n_retries + 1
let note_rebuild_block t = t.n_rebuilt <- t.n_rebuilt + 1
let note_unrecoverable t = t.n_unrecoverable <- t.n_unrecoverable + 1

let media_errors_seen t = t.n_media
let degraded_reads t = t.n_degraded
let transient_retries t = t.n_retries
let rebuild_blocks t = t.n_rebuilt
let unrecoverable_reads t = t.n_unrecoverable

type chaos = { publish_before_quiesce : bool; force_b2b : bool; hard_dwell_us : float }

let no_chaos = { publish_before_quiesce = false; force_b2b = false; hard_dwell_us = 0.0 }
