(* Negative fixture for wafl_lint: every construct below must be flagged.
   This file has no dune stanza — it is never compiled, only parsed by
   the lint self-check in `make lint`. *)

let _bad_entropy () = Random.self_init ()
let _bad_clock () = Unix.gettimeofday ()
let _bad_cpu_clock () = Sys.time ()
let _bad_order tbl = Hashtbl.iter (fun _ v -> print_int v) tbl
let _bad_fold tbl = Hashtbl.fold (fun _ v acc -> v + acc) tbl 0
let _bad_mutation agg = Wafl_fs.Aggregate.commit_alloc_pvbn agg 42
let _bad_raw_event sink ev = Wafl_obs.Sink.record sink ev
let _bad_raw_flow t = Wafl_obs.Trace.capture t ~kind:"smuggled"
let _bad_raw_restore t h = Wafl_obs.Trace.restore t ~kind:"smuggled" h
let _bad_raw_reset t = Wafl_obs.Trace.fiber_reset t
let _bad_raw_health t ev = Wafl_obs.Health.emit t ev
let _bad_discard disk = Wafl_storage.Disk.discard disk 42
let _bad_raw_read disk = Wafl_storage.Disk.read disk 42
let _bad_raw_word disk = Wafl_storage.Disk.compact_word disk 42
let _bad_recycle spares img = Wafl_util.Packed.recycle spares img
let _bad_registry t = Wafl_obs.Trace.metrics t

(* Suppressed: the fold result is sorted before use. lint-ok *)
let _ok_fold tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []

let _bad_catch_all f = try f () with _ -> ()
let _bad_catch_alias f = try f () with _ as _e -> ()
let _bad_catch_or f = try f () with Not_found | _ -> ()
let _bad_match_exception f = match f () with x -> x | exception _ -> 0

(* Suppressed: the caller re-checks the invariant. lint-ok *)
let _ok_catch_all f = try f () with _ -> ()
let _ok_specific f = try f () with Not_found -> ()
