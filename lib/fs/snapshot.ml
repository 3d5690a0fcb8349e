open Wafl_util

type t = { name : string; sb : Layout.superblock; words : int64 array }

let make ~name ~sb ~words = { name; sb; words }
let name t = t.name
let generation t = t.sb.Layout.generation
let superblock t = t.sb

let held_words t = t.words

(* A lookup down the pinned tree: inode chunk, block-map block, container
   chunk, data block.  [fetch] checks each metafile block it reads, so a
   hit below has the kind asked for, and [None] means a hole. *)
let read t ~read_pvbn ~vol ~file ~fbn =
  let fetch r locations index =
    match Array.find_opt (fun (i, _) -> i = index) locations with
    | Some (_, pvbn) -> Some (Blockref.fetch ~read:read_pvbn r pvbn)
    | None -> None
  in
  let corrupt fmt =
    Printf.ksprintf
      (fun what ->
        raise
          (Blockref.Corruption
             (Printf.sprintf "snapshot %s: vol %d file %d fbn %d: %s" t.name vol file fbn what)))
      fmt
  in
  let data vr vvbn =
    let index = vvbn / Layout.entries_per_container_block in
    match fetch (Blockref.Container_chunk { vol; index }) vr.Layout.container_pvbns index with
    | Some (Layout.Container { entries; _ }) -> (
        match Packed.get entries (vvbn mod Layout.entries_per_container_block) with
        | -1 -> corrupt "vvbn %d unmapped in its container" vvbn
        | pvbn -> (
            match read_pvbn pvbn with
            | Some (Layout.Data d) when d.vol = vol && d.file = file && d.fbn = fbn ->
                Some d.content
            | _ -> corrupt "pvbn %d does not hold it" pvbn))
    | _ -> corrupt "vvbn %d has no container chunk" vvbn
  in
  match List.find_opt (fun (vr : Layout.vol_rec) -> vr.vol_id = vol) t.sb.vols with
  | None -> None
  | Some vr -> (
      let chunk = file / Layout.inodes_per_block in
      match fetch (Blockref.Inode_chunk { vol; index = chunk }) vr.inode_chunk_pvbns chunk with
      | Some (Layout.Inode_chunk { inodes; _ }) -> (
          match List.find_opt (fun (r : Layout.inode_rec) -> r.file_id = file) inodes with
          | Some inode when fbn >= 0 && fbn < inode.nfbns -> (
              let index = fbn / Layout.entries_per_bmap_block in
              match fetch (Blockref.Bmap_block { vol; file; index }) inode.bmap_pvbns index with
              | Some (Layout.Bmap { entries; _ }) -> (
                  match Packed.get entries (fbn mod Layout.entries_per_bmap_block) with
                  | -1 -> None
                  | vvbn -> data vr vvbn)
              | _ -> None)
          | _ -> None)
      | _ -> None)
