(* Operator's view: run a mixed workload against the simulated controller
   and print the df/snap-list style reports plus a consistency-point summary and
   the Wafl_obs performance summary — the observability a storage admin
   of the real system would expect.

     dune exec examples/server_report.exe *)

open Wafl_sim
open Wafl_fs

let () =
  let eng = Engine.create ~cores:12 () in
  let obs = Wafl_obs.Trace.create eng in
  let geometry =
    Wafl_storage.Geometry.create ~drive_blocks:32768 ~aa_stripes:1024
      ~raid_groups:[ (5, 1); (5, 1) ] ()
  in
  let agg = Aggregate.create eng ~cost:Cost.default ~geometry ~nvlog_half:8192 ~obs () in
  let walloc = Wafl_core.Walloc.create ~obs agg Wafl_core.Walloc.default_config in
  ignore
    (Engine.spawn eng ~label:"app" (fun () ->
         let vol_a = Aggregate.create_volume agg ~vvbn_space:131072 in
         let vol_b = Aggregate.create_volume agg ~vvbn_space:65536 in
         Wafl_core.Walloc.register_volume walloc vol_a;
         Wafl_core.Walloc.register_volume walloc vol_b;
         let r = Wafl_util.Rng.create ~seed:7 in
         let write vol f fbn =
           match
             Aggregate.write agg ~vol:(Volume.id vol) ~file:(File.id f) ~fbn
               ~content:(Wafl_util.Rng.bits64 r)
           with
           | `Ok -> ()
           | `Log_half_full -> Wafl_core.Cp.run_now (Wafl_core.Walloc.cp walloc)
           | `Log_exhausted -> assert false (* run_now drains the log first *)
         in
         let mk_files vol n blocks =
           Array.init n (fun _ ->
               let f = Aggregate.create_file agg ~vol:(Volume.id vol) in
               for fbn = 0 to blocks - 1 do
                 write vol f fbn
               done;
               f)
         in
         let files_a = mk_files vol_a 8 2048 in
         let _files_b = mk_files vol_b 30 128 in
         Wafl_core.Cp.run_now (Wafl_core.Walloc.cp walloc);
         ignore (Aggregate.create_snapshot agg ~name:"hourly.0");
         (* Overwrite part of volume A, read some of it back, delete a file. *)
         Array.iteri
           (fun i f ->
             if i < 4 then
               for fbn = 0 to 2047 do
                 write vol_a f fbn
               done)
           files_a;
         Aggregate.delete_file agg ~vol:(Volume.id vol_a) ~file:(File.id files_a.(7));
         Wafl_core.Cp.run_now (Wafl_core.Walloc.cp walloc);
         for _ = 1 to 4000 do
           let f = files_a.(Wafl_util.Rng.int r 4) in
           ignore
             (Aggregate.read agg ~vol:(Volume.id vol_a) ~file:(File.id f)
                ~fbn:(Wafl_util.Rng.int r 2048))
         done;
         Wafl_core.Cp.run_now (Wafl_core.Walloc.cp walloc);

         print_endline "== space ==";
         print_string (Report.space agg);
         print_endline "\n== snapshots ==";
         print_string (Report.snapshots agg);
         print_endline "\n== allocation areas ==";
         print_string (Report.allocation_areas agg);
         print_endline "\n== consistency points ==";
         let m = Engine.metrics eng in
         Printf.printf "  %d CPs, %.0f buffers cleaned, %.2f ms mean duration\n"
           (Wafl_core.Cp.cps_completed (Wafl_core.Walloc.cp walloc))
           (Metrics.counter_value m "cp.buffers_cleaned")
           (match Metrics.histo m "cp.duration_us" with
           | Some h -> Wafl_util.Histogram.mean h /. 1000.0
           | None -> 0.0);
         print_endline "\n== performance (Wafl_obs) ==";
         print_string (Report.perf ~elapsed:(Engine.now eng) (Engine.metrics eng));
         Aggregate.fsck agg;
         print_endline "\nfsck: clean"));
  Engine.run eng
