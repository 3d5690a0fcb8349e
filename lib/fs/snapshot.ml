open Wafl_util

type t = { name : string; sb : Layout.superblock; words : int64 array }

let make ~name ~sb ~words = { name; sb; words }
let name t = t.name
let generation t = t.sb.Layout.generation
let superblock t = t.sb

let holds t pvbn =
  let w = pvbn / 64 in
  w >= 0 && w < Array.length t.words && Bitops.get t.words.(w) (pvbn mod 64)

let held_words t = t.words

let read_block disk pvbn what =
  match Wafl_storage.Disk.read disk pvbn with
  | Some payload -> payload
  | None -> failwith (Printf.sprintf "snapshot: %s at pvbn %d missing" what pvbn)

let assoc_location locations idx =
  let found = ref (-1) in
  Array.iter (fun (i, pvbn) -> if i = idx then found := pvbn) locations;
  !found

let read t ~disk ~vol ~file ~fbn =
  match List.find_opt (fun (vr : Layout.vol_rec) -> vr.Layout.vol_id = vol) t.sb.Layout.vols with
  | None -> None
  | Some vr -> (
      let chunk_idx = file / Layout.inodes_per_block in
      match assoc_location vr.Layout.inode_chunk_pvbns chunk_idx with
      | -1 -> None
      | chunk_pvbn -> (
          let inodes =
            match read_block disk chunk_pvbn "inode chunk" with
            | Layout.Inode_chunk { vol = v; index; inodes } when v = vol && index = chunk_idx
              ->
                inodes
            | _ -> failwith "snapshot: inode chunk has wrong payload"
          in
          match List.find_opt (fun (r : Layout.inode_rec) -> r.Layout.file_id = file) inodes with
          | None -> None
          | Some inode -> (
              if fbn < 0 || fbn >= inode.Layout.nfbns then None
              else
                let bmap_idx = fbn / Layout.entries_per_bmap_block in
                match assoc_location inode.Layout.bmap_pvbns bmap_idx with
                | -1 -> None
                | bmap_pvbn -> (
                    let entries =
                      match read_block disk bmap_pvbn "bmap block" with
                      | Layout.Bmap { vol = v; file = f; index; entries }
                        when v = vol && f = file && index = bmap_idx ->
                          entries
                      | _ -> failwith "snapshot: bmap block has wrong payload"
                    in
                    match Packed.get entries (fbn mod Layout.entries_per_bmap_block) with
                    | -1 -> None
                    | vvbn -> (
                        let cidx = vvbn / Layout.entries_per_container_block in
                        match assoc_location vr.Layout.container_pvbns cidx with
                        | -1 -> failwith "snapshot: vvbn has no container chunk"
                        | container_pvbn -> (
                            let centries =
                              match read_block disk container_pvbn "container chunk" with
                              | Layout.Container { vol = v; index; entries }
                                when v = vol && index = cidx ->
                                  entries
                              | _ -> failwith "snapshot: container chunk has wrong payload"
                            in
                            match
                              Packed.get centries (vvbn mod Layout.entries_per_container_block)
                            with
                            | -1 -> failwith "snapshot: vvbn unmapped in container"
                            | pvbn -> (
                                match read_block disk pvbn "data block" with
                                | Layout.Data d
                                  when d.vol = vol && d.file = file && d.fbn = fbn ->
                                    Some d.content
                                | _ -> failwith "snapshot: data block mismatch")))))))
