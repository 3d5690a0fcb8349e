type vbn = int
type location = { rg : int; drive : int; dbn : int }

type group = { data : int; parity : int; first_drive : int (* global data-drive index *) }

type t = {
  drive_blocks : int;
  drive_shift : int; (* log2 drive_blocks when a power of two, else -1 *)
  aa_stripes : int;
  groups : group array;
  drives_total : int;
}

let create ?(drive_blocks = 65536) ?(aa_stripes = 1024) ~raid_groups () =
  if raid_groups = [] then invalid_arg "Geometry.create: no RAID groups";
  if drive_blocks <= 0 || aa_stripes <= 0 || drive_blocks mod aa_stripes <> 0 then
    invalid_arg "Geometry.create: drive_blocks must be a positive multiple of aa_stripes";
  let next = ref 0 in
  let groups =
    raid_groups
    |> List.map (fun (data, parity) ->
           if data <= 0 || parity < 0 then
             invalid_arg "Geometry.create: bad drive counts";
           let g = { data; parity; first_drive = !next } in
           next := !next + data;
           g)
    |> Array.of_list
  in
  (* Block maps and container maps keep a VBN in 32 bits. *)
  if !next * drive_blocks >= 1 lsl 31 then
    invalid_arg "Geometry.create: an aggregate holds fewer than 2^31 data blocks";
  let drive_shift =
    if drive_blocks land (drive_blocks - 1) = 0 then
      let rec log2 n acc = if n = 1 then acc else log2 (n lsr 1) (acc + 1) in
      log2 drive_blocks 0
    else -1
  in
  { drive_blocks; drive_shift; aa_stripes; groups; drives_total = !next }

let drives_total t = t.drives_total
let total_data_blocks t = t.drives_total * t.drive_blocks
let raid_group_count t = Array.length t.groups

let group t rg =
  if rg < 0 || rg >= Array.length t.groups then invalid_arg "Geometry: bad RAID group";
  t.groups.(rg)

let data_drives t ~rg = (group t rg).data
let parity_drives t ~rg = (group t rg).parity
let drive_blocks t = t.drive_blocks
let aa_stripes t = t.aa_stripes
let aa_count t = t.drive_blocks / t.aa_stripes

let drive_base t ~rg ~drive =
  let g = group t rg in
  if drive < 0 || drive >= g.data then invalid_arg "Geometry: bad drive";
  (g.first_drive + drive) * t.drive_blocks

let vbn_of t ~rg ~drive ~dbn =
  if dbn < 0 || dbn >= t.drive_blocks then invalid_arg "Geometry: bad dbn";
  drive_base t ~rg ~drive + dbn

let vbn_valid t v = v >= 0 && v < total_data_blocks t

let check_vbn t v fn = if not (vbn_valid t v) then invalid_arg ("Geometry." ^ fn ^ ": bad vbn")

(* The shift/mask forms when [drive_blocks] is a power of two. *)
let global_drive t v = if t.drive_shift >= 0 then v lsr t.drive_shift else v / t.drive_blocks
let dbn_unchecked t v = if t.drive_shift >= 0 then v land (t.drive_blocks - 1) else v mod t.drive_blocks

(* RAID groups are few (typically 1-4); a linear scan is clear and fast. *)
let rg_of_drive t d =
  let rg = ref 0 in
  while
    let g = Array.unsafe_get t.groups !rg in
    d >= g.first_drive + g.data
  do
    incr rg
  done;
  !rg

let locate t v =
  check_vbn t v "locate";
  let d = global_drive t v in
  let rg = rg_of_drive t d in
  { rg; drive = d - t.groups.(rg).first_drive; dbn = dbn_unchecked t v }

let rg_of t v =
  check_vbn t v "rg_of";
  rg_of_drive t (global_drive t v)

let dbn_of t v =
  check_vbn t v "dbn_of";
  dbn_unchecked t v

let rg_offset t v =
  check_vbn t v "rg_offset";
  v - (t.groups.(rg_of_drive t (global_drive t v)).first_drive * t.drive_blocks)

let aa_of_dbn t dbn =
  if dbn < 0 || dbn >= t.drive_blocks then invalid_arg "Geometry.aa_of_dbn: bad dbn";
  dbn / t.aa_stripes

let aa_dbn_range t ~aa =
  if aa < 0 || aa >= aa_count t then invalid_arg "Geometry.aa_dbn_range: bad aa";
  (aa * t.aa_stripes, ((aa + 1) * t.aa_stripes) - 1)

let drives_of_rg t ~rg =
  let g = group t rg in
  List.init g.data (fun d -> (d, drive_base t ~rg ~drive:d))
