type t =
  | Bmap_block of { vol : int; file : int; index : int }
  | Inode_chunk of { vol : int; index : int }
  | Container_chunk of { vol : int; index : int }
  | Vol_map_chunk of { vol : int; index : int }
  | Agg_map_chunk of { index : int }

exception Corruption of string

let of_block = function
  | Layout.Bmap { vol; file; index; _ } -> Some (Bmap_block { vol; file; index })
  | Layout.Inode_chunk { vol; index; _ } -> Some (Inode_chunk { vol; index })
  | Layout.Container { vol; index; _ } -> Some (Container_chunk { vol; index })
  | Layout.Vol_map { vol; index; _ } -> Some (Vol_map_chunk { vol; index })
  | Layout.Agg_map { index; _ } -> Some (Agg_map_chunk { index })
  | Layout.Data _ -> None

let to_string = function
  | Bmap_block { vol; file; index } -> Printf.sprintf "vol %d file %d bmap block %d" vol file index
  | Inode_chunk { vol; index } -> Printf.sprintf "vol %d inode chunk %d" vol index
  | Container_chunk { vol; index } -> Printf.sprintf "vol %d container chunk %d" vol index
  | Vol_map_chunk { vol; index } -> Printf.sprintf "vol %d volmap chunk %d" vol index
  | Agg_map_chunk { index } -> Printf.sprintf "aggmap chunk %d" index

let fetch ~read r pvbn =
  let fail what = raise (Corruption (Printf.sprintf "%s at pvbn %d: %s" (to_string r) pvbn what)) in
  match read pvbn with
  | exception Corruption m -> fail m
  | None -> fail "missing"
  | Some b -> (
      match of_block b with
      | Some r' when r' = r -> b
      | Some other -> fail ("holds " ^ to_string other)
      | None -> fail "holds a data block")

let iter (sb : Layout.superblock) ~inodes f =
  let each ref_of locations = Array.iter (fun (index, pvbn) -> f (ref_of index) pvbn) locations in
  each (fun index -> Agg_map_chunk { index }) sb.aggmap_pvbns;
  List.iter
    (fun (vr : Layout.vol_rec) ->
      let vol = vr.vol_id in
      each (fun index -> Vol_map_chunk { vol; index }) vr.volmap_pvbns;
      each (fun index -> Container_chunk { vol; index }) vr.container_pvbns;
      each (fun index -> Inode_chunk { vol; index }) vr.inode_chunk_pvbns;
      List.iter
        (fun (ir : Layout.inode_rec) ->
          each (fun index -> Bmap_block { vol; file = ir.file_id; index }) ir.bmap_pvbns)
        (inodes vol))
    sb.vols
