(* Unit tests for Wafl_storage: geometry arithmetic, the disk store and
   the RAID write path (stripe accounting, durability, quiescing). *)

open Wafl_storage
open Wafl_sim

let geom () = Geometry.create ~drive_blocks:4096 ~aa_stripes:256 ~raid_groups:[ (4, 1); (3, 1) ] ()

(* --- Geometry --- *)

let test_totals () =
  let g = geom () in
  Alcotest.(check int) "data drives" 7 (Geometry.drives_total g);
  Alcotest.(check int) "total blocks" (7 * 4096) (Geometry.total_data_blocks g);
  Alcotest.(check int) "raid groups" 2 (Geometry.raid_group_count g);
  Alcotest.(check int) "rg0 data" 4 (Geometry.data_drives g ~rg:0);
  Alcotest.(check int) "rg1 data" 3 (Geometry.data_drives g ~rg:1);
  Alcotest.(check int) "rg0 parity" 1 (Geometry.parity_drives g ~rg:0);
  Alcotest.(check int) "aa count" 16 (Geometry.aa_count g)

let test_vbn_roundtrip () =
  let g = geom () in
  for rg = 0 to 1 do
    for drive = 0 to Geometry.data_drives g ~rg - 1 do
      List.iter
        (fun dbn ->
          let vbn = Geometry.vbn_of g ~rg ~drive ~dbn in
          let loc = Geometry.locate g vbn in
          Alcotest.(check int) "rg" rg loc.Geometry.rg;
          Alcotest.(check int) "drive" drive loc.Geometry.drive;
          Alcotest.(check int) "dbn" dbn loc.Geometry.dbn)
        [ 0; 1; 255; 4095 ]
    done
  done

let test_vbn_ranges_disjoint () =
  let g = geom () in
  (* Every VBN belongs to exactly one drive; drive bases partition the
     space into contiguous runs. *)
  let seen = Hashtbl.create 16 in
  for rg = 0 to 1 do
    List.iter
      (fun (drive, base) ->
        Alcotest.(check bool) "base not seen" false (Hashtbl.mem seen base);
        Hashtbl.add seen base (rg, drive);
        Alcotest.(check int) "base = vbn_of dbn 0" base (Geometry.vbn_of g ~rg ~drive ~dbn:0))
      (Geometry.drives_of_rg g ~rg)
  done;
  Alcotest.(check int) "seven drives" 7 (Hashtbl.length seen)

let test_aa_ranges () =
  let g = geom () in
  let lo, hi = Geometry.aa_dbn_range g ~aa:0 in
  Alcotest.(check (pair int int)) "first AA" (0, 255) (lo, hi);
  let lo, hi = Geometry.aa_dbn_range g ~aa:15 in
  Alcotest.(check (pair int int)) "last AA" (15 * 256, 4095) (lo, hi);
  Alcotest.(check int) "aa of dbn" 3 (Geometry.aa_of_dbn g 800)

let test_geometry_validation () =
  Alcotest.check_raises "no groups" (Invalid_argument "Geometry.create: no RAID groups")
    (fun () -> ignore (Geometry.create ~raid_groups:[] ()));
  Alcotest.check_raises "bad alignment"
    (Invalid_argument "Geometry.create: drive_blocks must be a positive multiple of aa_stripes")
    (fun () -> ignore (Geometry.create ~drive_blocks:100 ~aa_stripes:64 ~raid_groups:[ (2, 1) ] ()));
  (* VBNs are kept in 32-bit map entries. *)
  Alcotest.check_raises "2^31 data blocks"
    (Invalid_argument "Geometry.create: an aggregate holds fewer than 2^31 data blocks")
    (fun () ->
      ignore (Geometry.create ~drive_blocks:(1 lsl 27) ~raid_groups:[ (10, 2); (6, 1) ] ()));
  Alcotest.(check int) "one drive fewer is accepted" ((1 lsl 31) - (1 lsl 27))
    (Geometry.total_data_blocks
       (Geometry.create ~drive_blocks:(1 lsl 27) ~raid_groups:[ (10, 2); (5, 1) ] ()));
  let g = geom () in
  Alcotest.(check bool) "invalid vbn" false (Geometry.vbn_valid g (7 * 4096));
  Alcotest.(check bool) "valid vbn" true (Geometry.vbn_valid g 0)

let prop_locate_inverts_vbn_of =
  QCheck.Test.make ~name:"locate inverts vbn_of" ~count:500
    QCheck.(triple (int_bound 1) (int_bound 2) (int_bound 4095))
    (fun (rg, drive, dbn) ->
      let g = geom () in
      let drive = drive mod Geometry.data_drives g ~rg in
      let vbn = Geometry.vbn_of g ~rg ~drive ~dbn in
      let loc = Geometry.locate g vbn in
      loc.Geometry.rg = rg && loc.Geometry.drive = drive && loc.Geometry.dbn = dbn)

(* --- Disk --- *)

let test_disk_read_write () =
  let d = Disk.create (geom ()) in
  Alcotest.(check (option string)) "unwritten" None (Disk.read d 42);
  Disk.write d 42 "hello";
  Alcotest.(check (option string)) "written" (Some "hello") (Disk.read d 42);
  Disk.write d 42 "world";
  Alcotest.(check string) "overwritten" "world" (Disk.read_exn d 42);
  Alcotest.(check int) "write count" 2 (Disk.writes_total d)

let test_disk_bounds () =
  let d = Disk.create (geom ()) in
  Alcotest.check_raises "oob write" (Invalid_argument "Disk: vbn 999999 out of range")
    (fun () -> Disk.write d 999999 "x")

let test_disk_discard () =
  let d = Disk.create (geom ()) in
  Disk.write d 42 "hello";
  Alcotest.(check (option string)) "discard returns the image" (Some "hello") (Disk.discard d 42);
  Alcotest.(check (option string)) "read after discard" None (Disk.read d 42);
  Alcotest.(check int) "discard is not a write" 1 (Disk.writes_total d);
  Alcotest.check_raises "oob discard" (Invalid_argument "Disk: vbn 999999 out of range")
    (fun () -> ignore (Disk.discard d 999999));
  Disk.write d 42 "again";
  Alcotest.(check (option string)) "rewrite stores again" (Some "again") (Disk.read d 42);
  Alcotest.(check int) "rewrite counted" 2 (Disk.writes_total d)

(* Slots are unboxed: two words in a page of slots, a boxed image held by
   its index in one dense vector.  Exercised with a record payload, so the
   store's polymorphism is not tied to the file system's block type. *)
type rec_payload = { tag : int; body : string }

(* Kept out of line so no register or stack slot of the caller still
   holds the payload when the test collects. *)
let[@inline never] write_and_discard d vbn =
  let p = { tag = vbn; body = String.make 64 'x' } in
  Disk.write d vbn p;
  let w = Weak.create 1 in
  Weak.set w 0 (Some p);
  (match Disk.discard d vbn with
  | Some q -> Alcotest.(check bool) "discard hands back the stored value" true (q == p)
  | None -> Alcotest.fail "discard lost the image");
  w

let test_disk_unboxed_slots () =
  let d = Disk.create (geom ()) in
  let absent what vbn = Alcotest.(check bool) what true (Disk.read d vbn = None) in
  absent "fresh store" 0;
  Alcotest.(check bool) "discarding an unwritten slot" true (Disk.discard d 7 = None);
  let first = { tag = 1; body = "first" } in
  Disk.write d 1 first;
  absent "neighbour of the first write" 0;
  absent "far slot" (Geometry.total_data_blocks (geom ()) - 1);
  (match Disk.read d 1 with
  | Some p -> Alcotest.(check bool) "read returns the stored value" true (p == first)
  | None -> Alcotest.fail "written slot reads None");
  for round = 1 to 3 do
    let p = { tag = round; body = "cycle" } in
    Disk.write d 5 p;
    Alcotest.(check (option int)) "written" (Some round)
      (Option.map (fun p -> p.tag) (Disk.read d 5));
    Alcotest.(check (option int)) "discard returns it" (Some round)
      (Option.map (fun p -> p.tag) (Disk.discard d 5));
    absent "after discard" 5;
    Alcotest.(check bool) "second discard" true (Disk.discard d 5 = None)
  done;
  Alcotest.(check int) "only writes count" 4 (Disk.writes_total d);
  let w = write_and_discard d 9 in
  Gc.full_major ();
  Alcotest.(check bool) "a discarded image is not kept alive" true (Weak.get w 0 = None);
  let oob = Invalid_argument "Disk: vbn 999999 out of range" in
  Alcotest.check_raises "oob read" oob (fun () -> ignore (Disk.read d 999999));
  Alcotest.check_raises "oob discard" oob (fun () -> ignore (Disk.discard d 999999));
  Alcotest.check_raises "negative vbn" (Invalid_argument "Disk: vbn -1 out of range") (fun () ->
      Disk.write d (-1) first)

(* The store is paged (4096 slots a page): host memory follows the pages
   that hold images, not the aggregate's size.  A page is a slab of two
   words a slot (8192) and its present-slot count, 65544 bytes off the
   heap; on the heap it is one small custom block.  The first boxed
   image also makes the 16-entry image vector and its free-index stack
   (17 words each) and the fill option (2), in place of the empty array
   (one header) both began as.  The discard that empties a page hands
   it back: its slab bytes and its custom block both leave the store. *)
let paper_geometry () = Geometry.create ~drive_blocks:262144 ~raid_groups:[ (10, 2); (10, 2) ] ()

let page_bytes = 8 * (8192 + 1)

(* Heap words a page may cost: its slab's custom block. *)
let page_heap_words = 16

let check_page_heap what ~base ~pages now =
  if now < base || now > base + (pages * page_heap_words) then
    Alcotest.failf "%s: %d heap words over %d for %d page(s)" what (now - base) base pages

let test_disk_pages_made_at_first_write () =
  let g = paper_geometry () in
  let d = Disk.create g in
  let words () = Obj.reachable_words (Obj.repr d) in
  let bytes () = Disk.slab_bytes d in
  let empty = words () in
  Alcotest.(check bool)
    (Printf.sprintf "an empty store on %d blocks: %d words" (Geometry.total_data_blocks g) empty)
    true (empty < 2_000);
  Alcotest.(check int) "an empty store holds no slab" 0 (bytes ());
  let first = String.make 40 'f' in
  Disk.write d 5 first;
  let one_write = words () in
  Alcotest.(check int) "the first write costs a page" page_bytes (bytes ());
  check_page_heap "the first write costs the image vector and its image"
    ~base:(empty + 17 + 17 + 2 - 1 + Obj.reachable_words (Obj.repr first))
    ~pages:1 one_write;
  let far = Geometry.total_data_blocks g - 1 in
  let big = String.make 80_000 'x' in
  Disk.write d far big;
  Alcotest.(check int) "a second page costs its slots" (2 * page_bytes) (bytes ());
  check_page_heap "a second page costs its image"
    ~base:(one_write + Obj.reachable_words (Obj.repr big))
    ~pages:1 (words ());
  Alcotest.(check (option string)) "last image handed back" (Some big) (Disk.discard d far);
  Alcotest.(check int) "the emptied page leaves the store" page_bytes (bytes ());
  Alcotest.(check int) "the emptied page goes back with its image" one_write (words ());
  Alcotest.(check (option string)) "discarded slot reads absent" None (Disk.read d far);
  Disk.write d far "again";
  Alcotest.(check (option string)) "written again" (Some "again") (Disk.read d far);
  Alcotest.(check int) "a page again" (2 * page_bytes) (bytes ());
  (* Filling a page and discarding every slot of it returns the store to
     its size before the page (compact images, so the page is all the
     filling adds). *)
  let c = Disk.create ~codec:Wafl_fs.Layout.data_codec g in
  let words () = Obj.reachable_words (Obj.repr c) in
  let bytes () = Disk.slab_bytes c in
  let before = words () in
  let base = 3 * 4096 in
  let img vbn = Wafl_fs.Layout.Data { vol = 0; file = 0; fbn = vbn; content = 0L } in
  for vbn = base to base + 4095 do
    Disk.write c vbn (img vbn)
  done;
  Alcotest.(check int) "a full page" page_bytes (bytes ());
  check_page_heap "a full page" ~base:before ~pages:1 (words ());
  let full = words () in
  for vbn = base to base + 4094 do
    ignore (Disk.discard c vbn)
  done;
  Alcotest.(check int) "one slot keeps the page" page_bytes (bytes ());
  Alcotest.(check int) "discards allocate nothing" full (words ());
  Alcotest.(check bool) "the last slot survives" true
    (Disk.read c (base + 4095) = Some (img (base + 4095)));
  ignore (Disk.discard c (base + 4095));
  Alcotest.(check int) "the emptied page is handed back" 0 (bytes ());
  Alcotest.(check int) "and its custom block" before (words ())

let test_disk_discard_keeps_neighbours () =
  let d = Disk.create (paper_geometry ()) in
  Disk.write d 4096 10;
  Disk.write d 4097 11;
  Disk.write d 8191 12;
  Alcotest.(check (option int)) "discard" (Some 10) (Disk.discard d 4096);
  Alcotest.(check (option int)) "neighbour survives" (Some 11) (Disk.read d 4097);
  Alcotest.(check (option int)) "end of page survives" (Some 12) (Disk.read d 8191);
  Alcotest.(check (option int)) "discarded slot absent" None (Disk.read d 4096);
  Alcotest.(check (option int)) "second discard" (Some 11) (Disk.discard d 4097);
  Alcotest.(check (option int)) "last one still there" (Some 12) (Disk.read d 8191)

(* The last page covers what is left of the aggregate: a whole page with
   three groups of 1536-block drives (12288 blocks), and a short one of
   2560 slots without the last group (10752 blocks). *)
let test_disk_last_page () =
  List.iter
    (fun raid_groups ->
      let g = Geometry.create ~drive_blocks:1536 ~aa_stripes:512 ~raid_groups () in
      let total = Geometry.total_data_blocks g in
      let first = total - 1 - ((total - 1) mod 4096) in
      let d = Disk.create g in
      List.iter (fun vbn -> Disk.write d vbn vbn) [ first; total - 1 ];
      Alcotest.(check (option int)) "first slot of the last page" (Some first) (Disk.read d first);
      Alcotest.(check (option int)) "last slot" (Some (total - 1)) (Disk.read d (total - 1));
      Alcotest.(check (option int)) "between them" None (Disk.read d (first + 1));
      Alcotest.check_raises "one past the end"
        (Invalid_argument (Printf.sprintf "Disk: vbn %d out of range" total))
        (fun () -> Disk.write d total 0);
      Alcotest.(check (option int)) "discard last" (Some (total - 1)) (Disk.discard d (total - 1));
      Alcotest.(check (option int)) "discard first" (Some first) (Disk.discard d first);
      Alcotest.(check (option int)) "discarded slot absent" None (Disk.read d (total - 1));
      Disk.write d (total - 1) 7;
      Alcotest.(check (option int)) "written again" (Some 7) (Disk.read d (total - 1)))
    [ [ (2, 1); (5, 2); (1, 1) ]; [ (2, 1); (5, 2) ] ]

(* --- The compact store ---

   With the file system's data codec, an in-range data image is kept as
   two words (key, content) and read back as a fresh equal value; any
   other image is stored boxed, by reference, as without a codec. *)

module Layout = Wafl_fs.Layout

let data ~vol ~file ~fbn content = Layout.Data { vol; file; fbn; content }
let compact_disk () = Disk.create ~codec:Layout.data_codec (paper_geometry ())

let test_compact_round_trip () =
  let d = compact_disk () in
  let images =
    [
      data ~vol:0 ~file:0 ~fbn:0 0L;
      data ~vol:3 ~file:5 ~fbn:7 0x1234_5678_9abc_def0L;
      data ~vol:255 ~file:((1 lsl 22) - 1) ~fbn:((1 lsl 32) - 1) Int64.min_int;
      data ~vol:1 ~file:(1 lsl 21) ~fbn:(1 lsl 31) (-1L);
    ]
  in
  List.iteri
    (fun i img ->
      let vbn = 4096 + i in
      Disk.write d vbn img;
      match Disk.read d vbn with
      | Some back ->
          Alcotest.(check bool) "read back equal" true (back = img);
          Alcotest.(check bool) "a value copy, not the written block" false (back == img)
      | None -> Alcotest.fail "compact image lost")
    images;
  (* A compact page costs two words a slot (8192) and its present-slot
     count, all in its slab, and no heap block per image. *)
  let words () = Obj.reachable_words (Obj.repr d) in
  let w0 = words () and b0 = Disk.slab_bytes d in
  Disk.write d 8192 (data ~vol:1 ~file:2 ~fbn:3 42L);
  Alcotest.(check int) "a page of compact words" (b0 + page_bytes) (Disk.slab_bytes d);
  check_page_heap "a page of compact words" ~base:w0 ~pages:1 (words ());
  let w1 = words () in
  for vbn = 8193 to 12287 do
    Disk.write d vbn (data ~vol:1 ~file:2 ~fbn:vbn (Int64.of_int vbn))
  done;
  Alcotest.(check int) "filling the page adds no slab" (b0 + page_bytes) (Disk.slab_bytes d);
  Alcotest.(check int) "filling the page adds no heap" w1 (words ());
  Alcotest.(check bool) "last slot of the page" true
    (Disk.read d 12287 = Some (data ~vol:1 ~file:2 ~fbn:12287 12287L))

let test_compact_boxed_fallback () =
  let d = compact_disk () in
  List.iteri
    (fun i img ->
      let vbn = 100 + i in
      Disk.write d vbn img;
      (match Disk.read d vbn with
      | Some back -> Alcotest.(check bool) "boxed: the written block itself" true (back == img)
      | None -> Alcotest.fail "boxed image lost");
      match Disk.discard d vbn with
      | Some back -> Alcotest.(check bool) "discard hands the boxed block back" true (back == img)
      | None -> Alcotest.fail "boxed discard returned nothing")
    [
      data ~vol:256 ~file:0 ~fbn:0 1L;
      data ~vol:(-1) ~file:0 ~fbn:0 2L;
      data ~vol:0 ~file:(1 lsl 22) ~fbn:0 3L;
      data ~vol:0 ~file:(-1) ~fbn:0 4L;
      data ~vol:0 ~file:0 ~fbn:(1 lsl 32) 5L;
      data ~vol:0 ~file:0 ~fbn:(-1) 6L;
      Layout.Inode_chunk { vol = 0; index = 0; inodes = [] };
    ]

(* Kept out of line, as [write_and_discard], so only the store can hold
   the boxed image when the test collects. *)
let[@inline never] write_boxed d vbn tag =
  let img = data ~vol:0 ~file:0 ~fbn:(-1) (Int64.of_int tag) in
  Disk.write d vbn img;
  let w = Weak.create 1 in
  Weak.set w 0 (Some img);
  w

let test_compact_overwrite () =
  let d = compact_disk () in
  (* The store's first boxed image is its fill value, kept for good. *)
  ignore (write_boxed d 0 0);
  let vbn = 5000 in
  let reads what want = Alcotest.(check bool) what true (Disk.read d vbn = Some want) in
  let boxed tag = data ~vol:0 ~file:0 ~fbn:(-1) (Int64.of_int tag) in
  let compact tag = data ~vol:2 ~file:9 ~fbn:vbn (Int64.of_int tag) in
  Disk.write d vbn (compact 1);
  reads "compact" (compact 1);
  let w = write_boxed d vbn 2 in
  reads "compact -> boxed" (boxed 2);
  Disk.write d vbn (compact 3);
  reads "boxed -> compact" (compact 3);
  Gc.full_major ();
  Alcotest.(check bool) "the overwritten boxed image is not kept alive" true (Weak.get w 0 = None);
  let w = write_boxed d vbn 4 in
  reads "compact -> boxed again" (boxed 4);
  Disk.write d vbn (compact 5);
  reads "boxed -> compact again" (compact 5);
  Gc.full_major ();
  Alcotest.(check bool) "nor the second one" true (Weak.get w 0 = None);
  Alcotest.(check bool) "a compact discard hands nothing back" true (Disk.discard d vbn = None);
  Alcotest.(check bool) "and reads absent" true (Disk.read d vbn = None);
  ignore (write_boxed d vbn 6);
  reads "boxed after a compact discard" (boxed 6);
  Alcotest.(check int) "every write counted" 7 (Disk.writes_total d)

let test_compact_discard_keeps_neighbours () =
  let d = compact_disk () in
  let img vbn = data ~vol:1 ~file:1 ~fbn:vbn (Int64.of_int (vbn * 3)) in
  let boxed = Layout.Inode_chunk { vol = 1; index = 0; inodes = [] } in
  (* The boxed image comes first, so the page's compact words are made
     after it and must still say "boxed" for its slot. *)
  Disk.write d 4098 boxed;
  List.iter (fun vbn -> Disk.write d vbn (img vbn)) [ 4096; 4097; 8191 ];
  Alcotest.(check bool) "discard" true (Disk.discard d 4097 = None);
  Alcotest.(check bool) "discarded slot absent" true (Disk.read d 4097 = None);
  Alcotest.(check bool) "second discard" true (Disk.discard d 4097 = None);
  Alcotest.(check bool) "left neighbour survives" true (Disk.read d 4096 = Some (img 4096));
  Alcotest.(check bool) "end of page survives" true (Disk.read d 8191 = Some (img 8191));
  Alcotest.(check bool) "boxed neighbour survives" true
    (match Disk.read d 4098 with Some b -> b == boxed | None -> false);
  Disk.write d 4097 (img 9);
  Alcotest.(check bool) "written again" true (Disk.read d 4097 = Some (img 9));
  Alcotest.(check bool) "boxed discard still hands back" true
    (match Disk.discard d 4098 with Some b -> b == boxed | None -> false);
  Alcotest.(check bool) "compact neighbour of a boxed discard" true
    (Disk.read d 4097 = Some (img 9))

(* The non-allocating lookups agree with [locate] on every VBN, with a
   power-of-two drive size (shift/mask) and without (divide). *)
let test_parts_match_locate () =
  List.iter
    (fun g ->
      let db = Geometry.drive_blocks g in
      for v = 0 to Geometry.total_data_blocks g - 1 do
        let loc = Geometry.locate g v in
        if
          Geometry.rg_of g v <> loc.Geometry.rg
          || Geometry.dbn_of g v <> loc.Geometry.dbn
          || Geometry.rg_offset g v <> (loc.Geometry.drive * db) + loc.Geometry.dbn
        then Alcotest.failf "vbn %d disagrees with locate" v
      done;
      Alcotest.check_raises "past the end" (Invalid_argument "Geometry.rg_of: bad vbn") (fun () ->
          ignore (Geometry.rg_of g (Geometry.total_data_blocks g))))
    [
      geom ();
      Geometry.create ~drive_blocks:1536 ~aa_stripes:512 ~raid_groups:[ (2, 1); (5, 2); (1, 1) ] ();
    ]

(* --- Raid --- *)

let with_engine f =
  let eng = Engine.create ~cores:4 () in
  let result = ref None in
  ignore (Engine.spawn eng ~label:"test" (fun () -> result := Some (f eng)));
  Engine.run eng;
  match !result with Some v -> v | None -> Alcotest.fail "test fiber did not finish"

(* One I/O of [writes], in order, as a batch from the group's pool. *)
let submit raid ~writes ~on_complete =
  let b = Raid.batch raid in
  List.iter (fun (vbn, payload) -> Raid.add b vbn payload) writes;
  Raid.submit_batch raid b ~on_complete

let test_raid_write_durable () =
  let g = geom () in
  let d = Disk.create g in
  with_engine (fun eng ->
      let raid = Raid.create eng ~cost:Cost.default ~disk:d ~rg:0 in
      let writes = List.init 8 (fun i -> (Geometry.vbn_of g ~rg:0 ~drive:(i mod 4) ~dbn:(i / 4), i)) in
      let completed = ref false in
      submit raid ~writes ~on_complete:(fun () -> completed := true);
      Alcotest.(check bool) "asynchronous" false !completed;
      Raid.quiesce raid;
      Alcotest.(check bool) "completed" true !completed;
      List.iter
        (fun (vbn, v) -> Alcotest.(check (option int)) "durable" (Some v) (Disk.read d vbn))
        writes;
      Raid.shutdown raid)

let test_raid_full_vs_partial_stripes () =
  let g = geom () in
  let d = Disk.create g in
  with_engine (fun eng ->
      let raid = Raid.create eng ~cost:Cost.default ~disk:d ~rg:0 in
      (* dbn 0: all four drives -> full stripe; dbn 1: one drive -> partial. *)
      let writes =
        List.init 4 (fun drive -> (Geometry.vbn_of g ~rg:0 ~drive ~dbn:0, drive))
        @ [ (Geometry.vbn_of g ~rg:0 ~drive:0 ~dbn:1, 99) ]
      in
      submit raid ~writes ~on_complete:(fun () -> ());
      Raid.quiesce raid;
      Alcotest.(check int) "one full stripe" 1 (Reg.count eng "raid.full_stripes");
      Alcotest.(check int) "one partial stripe" 1 (Reg.count eng "raid.partial_stripes");
      Alcotest.(check int) "five blocks" 5 (Reg.count eng "raid.blocks");
      Raid.shutdown raid)

(* Random I/Os (duplicate blocks included) against a per-dbn Hashtbl
   tally: a stripe is full when every data drive contributes a block. *)
let prop_stripe_mix_matches_tally =
  QCheck.Test.make ~name:"stripe counts match a per-dbn tally" ~count:100
    QCheck.(list_of_size Gen.(1 -- 8) (list_of_size Gen.(1 -- 60) (pair (int_bound 3) (int_bound 40))))
    (fun ios ->
      let g = geom () in
      let d = Disk.create g in
      let full = ref 0 and partial = ref 0 in
      List.iter
        (fun io ->
          let per_dbn = Hashtbl.create 16 in
          List.iter
            (fun (_, dbn) ->
              Hashtbl.replace per_dbn dbn (1 + Option.value ~default:0 (Hashtbl.find_opt per_dbn dbn)))
            io;
          Hashtbl.iter (* counting commutes *)
            (fun _ n -> if n >= 4 then incr full else incr partial)
            per_dbn)
        ios;
      with_engine (fun eng ->
          let raid = Raid.create eng ~cost:Cost.default ~disk:d ~rg:0 in
          List.iter
            (fun io ->
              submit raid
                ~writes:(List.map (fun (drive, dbn) -> (Geometry.vbn_of g ~rg:0 ~drive ~dbn, 0)) io)
                ~on_complete:(fun () -> ()))
            ios;
          Raid.quiesce raid;
          Raid.shutdown raid;
          Reg.count eng "raid.full_stripes" = !full
          && Reg.count eng "raid.partial_stripes" = !partial))

let test_raid_partial_pays_parity_penalty () =
  let g = geom () in
  let timed full =
    let d = Disk.create g in
    with_engine (fun eng ->
        let raid = Raid.create eng ~cost:Cost.default ~disk:d ~rg:0 in
        let writes =
          if full then List.init 4 (fun drive -> (Geometry.vbn_of g ~rg:0 ~drive ~dbn:0, drive))
          else List.init 4 (fun dbn -> (Geometry.vbn_of g ~rg:0 ~drive:0 ~dbn, dbn))
        in
        submit raid ~writes ~on_complete:(fun () -> ());
        Raid.quiesce raid;
        Raid.device_busy raid)
  in
  let full_time = timed true and partial_time = timed false in
  Alcotest.(check bool)
    (Printf.sprintf "partial stripes slower (%.0f vs %.0f)" partial_time full_time)
    true
    (partial_time > full_time)

let test_raid_rejects_foreign_vbn () =
  (* The check runs in the RAID service fiber, so the exception surfaces
     from Engine.run rather than from submit. *)
  let g = geom () in
  let d = Disk.create g in
  let eng = Engine.create ~cores:4 () in
  ignore
    (Engine.spawn eng ~label:"test" (fun () ->
         let raid = Raid.create eng ~cost:Cost.default ~disk:d ~rg:0 in
         let foreign = Geometry.vbn_of g ~rg:1 ~drive:0 ~dbn:0 in
         submit raid ~writes:[ (foreign, 0) ] ~on_complete:(fun () -> ())));
  Alcotest.check_raises "foreign vbn rejected"
    (Invalid_argument "Raid.submit: vbn not in this group") (fun () -> Engine.run eng)

let test_raid_empty_submit_completes_inline () =
  let g = geom () in
  let d = Disk.create g in
  with_engine (fun eng ->
      let raid = Raid.create eng ~cost:Cost.default ~disk:d ~rg:0 in
      let completed = ref false in
      submit raid ~writes:[] ~on_complete:(fun () -> completed := true);
      Alcotest.(check bool) "inline completion" true !completed;
      Raid.shutdown raid)

let test_raid_many_ios_in_order_counts () =
  let g = geom () in
  let d = Disk.create g in
  with_engine (fun eng ->
      let raid = Raid.create eng ~cost:Cost.default ~disk:d ~rg:0 ~queue_depth:2 in
      for i = 0 to 9 do
        submit raid
          ~writes:[ (Geometry.vbn_of g ~rg:0 ~drive:0 ~dbn:i, i) ]
          ~on_complete:(fun () -> ())
      done;
      Raid.quiesce raid;
      Alcotest.(check int) "all IOs done" 10 (Reg.count eng "raid.ios");
      Raid.shutdown raid)

(* --- Fault injection --- *)

let test_media_error_reconstructed_and_repaired () =
  let g = geom () in
  let d = Disk.create g in
  let plan = Fault.create ~seed:1 () in
  Disk.set_fault d plan;
  with_engine (fun eng ->
      let raid = Raid.create eng ~cost:Cost.default ~disk:d ~rg:0 in
      let vbn = Geometry.vbn_of g ~rg:0 ~drive:1 ~dbn:5 in
      submit raid ~writes:[ (vbn, 41) ] ~on_complete:(fun () -> ());
      Raid.quiesce raid;
      Fault.add_media_error plan vbn;
      (match Raid.read raid vbn with
      | `Degraded v -> Alcotest.(check int) "reconstructed from parity" 41 v
      | _ -> Alcotest.fail "expected a degraded read");
      (* Reconstruction rewrites the block, repairing the sector. *)
      (match Raid.read raid vbn with
      | `Ok v -> Alcotest.(check int) "sector repaired" 41 v
      | _ -> Alcotest.fail "expected a clean read after repair");
      Alcotest.(check int) "degraded read counted" 1 (Fault.degraded_reads plan);
      Alcotest.(check int) "media error counted" 1 (Fault.media_errors_seen plan);
      Raid.shutdown raid)

let test_transient_failures_retried_in_virtual_time () =
  let g = geom () in
  let run transient_p =
    let d = Disk.create g in
    let plan = Fault.create ~transient_p ~seed:7 () in
    Disk.set_fault d plan;
    with_engine (fun eng ->
        let raid = Raid.create eng ~cost:Cost.default ~disk:d ~rg:0 in
        for i = 0 to 19 do
          submit raid
            ~writes:[ (Geometry.vbn_of g ~rg:0 ~drive:0 ~dbn:i, i) ]
            ~on_complete:(fun () -> ())
        done;
        Raid.quiesce raid;
        for i = 0 to 19 do
          Alcotest.(check (option int)) "durable despite transients" (Some i)
            (Disk.read d (Geometry.vbn_of g ~rg:0 ~drive:0 ~dbn:i))
        done;
        let retries = Fault.transient_retries plan and busy = Raid.device_busy raid in
        Raid.shutdown raid;
        (retries, busy))
  in
  let retries_faulty, busy_faulty = run 0.4 in
  let retries_clean, busy_clean = run 0.0 in
  Alcotest.(check int) "no retries without faults" 0 retries_clean;
  Alcotest.(check bool) "retries happened" true (retries_faulty > 0);
  Alcotest.(check bool)
    (Printf.sprintf "backoff visible in device time (%.0f vs %.0f)" busy_faulty busy_clean)
    true
    (busy_faulty > busy_clean)

let test_disk_failure_degraded_then_rebuilt () =
  let g = geom () in
  let d = Disk.create g in
  let plan = Fault.create ~seed:3 () in
  Disk.set_fault d plan;
  with_engine (fun eng ->
      let raid = Raid.create eng ~cost:Cost.default ~disk:d ~rg:0 in
      let vbn = Geometry.vbn_of g ~rg:0 ~drive:2 ~dbn:100 in
      submit raid ~writes:[ (vbn, 5) ] ~on_complete:(fun () -> ());
      Raid.quiesce raid;
      Fault.fail_disk plan ~rg:0 ~drive:2 ~at:(Engine.now eng);
      (match Raid.read raid vbn with
      | `Degraded v -> Alcotest.(check int) "served by reconstruction" 5 v
      | _ -> Alcotest.fail "expected a degraded read");
      Alcotest.(check bool) "group degraded" true (Raid.degraded raid);
      (* The background rebuild fiber recreates the drive. *)
      while Raid.degraded raid do
        Engine.sleep 1_000.0
      done;
      Alcotest.(check int) "whole drive rebuilt" 4096 (Raid.rebuild_blocks raid);
      (match Raid.read raid vbn with
      | `Ok v -> Alcotest.(check int) "clean read after rebuild" 5 v
      | _ -> Alcotest.fail "expected a clean read after rebuild");
      Raid.shutdown raid)

let test_double_failure_is_lost () =
  let g = geom () in
  let d = Disk.create g in
  let plan = Fault.create ~seed:5 () in
  Disk.set_fault d plan;
  with_engine (fun eng ->
      let raid = Raid.create eng ~cost:Cost.default ~disk:d ~rg:0 in
      let on_failed = Geometry.vbn_of g ~rg:0 ~drive:0 ~dbn:9 in
      let peer = Geometry.vbn_of g ~rg:0 ~drive:1 ~dbn:9 in
      submit raid ~writes:[ (on_failed, 1); (peer, 2) ] ~on_complete:(fun () -> ());
      Raid.quiesce raid;
      Fault.fail_disk plan ~rg:0 ~drive:0 ~at:(Engine.now eng);
      Fault.add_media_error plan peer;
      (* Reconstructing the failed drive's block needs every peer of the
         stripe; the media error makes it a double failure. *)
      (match Raid.read raid on_failed with
      | `Lost -> ()
      | _ -> Alcotest.fail "expected the block to be unrecoverable");
      Alcotest.(check bool) "counted" true (Fault.unrecoverable_reads plan > 0);
      Raid.shutdown raid)

let test_write_error_lands_in_take_failed () =
  let g = geom () in
  let d = Disk.create g in
  let plan = Fault.create ~seed:9 () in
  Disk.set_fault d plan;
  with_engine (fun eng ->
      let raid = Raid.create eng ~cost:Cost.default ~disk:d ~rg:0 in
      let good = Geometry.vbn_of g ~rg:0 ~drive:0 ~dbn:0 in
      let bad = Geometry.vbn_of g ~rg:0 ~drive:1 ~dbn:0 in
      Fault.add_write_error plan bad;
      submit raid ~writes:[ (good, 1); (bad, 2) ] ~on_complete:(fun () -> ());
      Raid.quiesce raid;
      Alcotest.(check (option int)) "good write durable" (Some 1) (Disk.read d good);
      Alcotest.(check (option int)) "bad write not durable" None (Disk.read d bad);
      Alcotest.(check (list (pair int int))) "failed write reported" [ (bad, 2) ]
        (Raid.take_failed raid);
      Alcotest.(check (list (pair int int))) "list cleared" [] (Raid.take_failed raid);
      Raid.shutdown raid)

let test_shutdown_drains_queued_ios () =
  (* Stop requests queue behind pending I/Os, so a shutdown issued while
     the queue is deep must drain it, not drop it. *)
  let g = geom () in
  let d = Disk.create g in
  with_engine (fun eng ->
      let raid = Raid.create eng ~cost:Cost.default ~disk:d ~rg:0 ~queue_depth:1 in
      for i = 0 to 11 do
        submit raid
          ~writes:[ (Geometry.vbn_of g ~rg:0 ~drive:0 ~dbn:i, i) ]
          ~on_complete:(fun () -> ())
      done;
      Raid.shutdown raid;
      Raid.quiesce raid;
      Alcotest.(check int) "all queued IOs completed" 12 (Reg.count eng "raid.ios");
      for i = 0 to 11 do
        Alcotest.(check (option int)) "payload durable" (Some i)
          (Disk.read d (Geometry.vbn_of g ~rg:0 ~drive:0 ~dbn:i))
      done)

(* A batch against a list model.  Random I/Os mix compact data images,
   data images whose fields overflow the key (so they are boxed) and
   metafile images, added through each of the batch's entry points, on a
   disk with the data codec and a flash model.  The fault plan fails the
   writes of some vbns, and some I/Os exhaust their transient retries.
   The model applies each I/O's (vbn, image) list in order: the disk's
   contents, the [take_failed] list and every (lpn, stream) pair
   programmed (the classifier's calls, and the FTL's layout against a
   model FTL fed the model's pairs) must agree, and the classifier gets
   no image for a compact entry. *)
let prop_batch_matches_list_model =
  let entry = QCheck.(triple (int_bound 2) (int_bound 199) (int_bound 2)) in
  QCheck.Test.make ~name:"batch I/O matches a list model" ~count:60
    QCheck.(list_of_size Gen.(1 -- 6) (pair bool (list_of_size Gen.(0 -- 30) entry)))
    (fun ios ->
      let g = geom () in
      let vbn_of_slot slot = slot * 61 mod 16384 in
      let image kind slot =
        match kind with
        | 0 -> data ~vol:1 ~file:2 ~fbn:slot (Int64.of_int (slot * 7))
        | 1 -> data ~vol:300 ~file:2 ~fbn:slot (Int64.of_int slot)
        | _ -> Layout.Inode_chunk { vol = 1; index = slot; inodes = [] }
      in
      let failing slot = slot mod 7 = 3 in
      let cfg =
        { Wafl_flash.Ftl.default_config with pages_per_block = 16; prefill = 0.0; streams = 2 }
      in
      let lpns = Geometry.data_drives g ~rg:0 * Geometry.drive_blocks g in
      (* The model. *)
      let model_disk = Hashtbl.create 64 and model_failed = ref [] and model_pages = ref [] in
      let model_boxed = ref [] in
      let stream_of_image = function Layout.Data { fbn; _ } -> fbn land 1 | _ -> 1 in
      List.iter
        (fun (give_up, entries) ->
          let pages = ref [] in
          List.iter
            (fun (kind, slot, _) ->
              let vbn = vbn_of_slot slot and img = image kind slot in
              if give_up || failing slot then model_failed := (vbn, img) :: !model_failed
              else begin
                Hashtbl.replace model_disk vbn img;
                model_boxed := (kind <> 0) :: !model_boxed;
                pages := (Geometry.rg_offset g vbn, stream_of_image img) :: !pages
              end)
            entries;
          model_pages := List.rev !pages :: !model_pages)
        ios;
      let model_pages = List.rev !model_pages in
      let model_ftl =
        with_engine (fun eng ->
            let ftl = Wafl_flash.Ftl.create eng ~cfg ~lpns ~rg:0 in
            List.iter (Wafl_flash.Ftl.host_write ftl) model_pages;
            ftl)
      in
      (* The batches. *)
      let d = Disk.create ~codec:Layout.data_codec g in
      let plan = Fault.create ~max_retries:1 ~seed:3 () in
      Disk.set_fault d plan;
      List.iter
        (fun (_, entries) ->
          List.iter (fun (_, slot, _) -> if failing slot then Fault.add_write_error plan (vbn_of_slot slot)) entries)
        ios;
      let streams = ref [] in
      let failed, ftl =
        with_engine (fun eng ->
            let ftl = Wafl_flash.Ftl.create eng ~cfg ~lpns ~rg:0 in
            let raid = Raid.create eng ~cost:Cost.default ~flash:ftl ~disk:d ~rg:0 in
            Raid.set_stream_of raid (fun key boxed ->
                let s =
                  match boxed with
                  | None -> Layout.key_fbn key land 1
                  | Some img -> stream_of_image img
                in
                streams := (s, Option.is_some boxed) :: !streams;
                s);
            List.iter
              (fun (give_up, entries) ->
                Fault.set_transient_p plan (if give_up then 1.0 -. epsilon_float else 0.0);
                let b = Raid.batch raid in
                List.iter
                  (fun (kind, slot, how) ->
                    let vbn = vbn_of_slot slot in
                    match (kind, how) with
                    | 0, 0 ->
                        Raid.add_compact b vbn
                          ~key:(Layout.key_of_data ~vol:1 ~file:2 ~fbn:slot)
                          ~word:(Int64.of_int (slot * 7))
                    | (0 | 1), 1 -> (
                        match image kind slot with
                        | Layout.Data { vol; file; fbn; content } ->
                            Layout.add_data b vbn ~vol ~file ~fbn ~content
                        | _ -> assert false)
                    | _ -> Raid.add b vbn (image kind slot))
                  entries;
                Raid.submit_batch raid b ~on_complete:ignore;
                Raid.quiesce raid)
              ios;
            let failed = Raid.take_failed raid in
            Raid.shutdown raid;
            (failed, ftl))
      in
      let disk_agrees =
        List.for_all
          (fun (_, entries) ->
            List.for_all
              (fun (_, slot, _) ->
                let vbn = vbn_of_slot slot in
                Disk.read d vbn = Hashtbl.find_opt model_disk vbn)
              entries)
          ios
      in
      disk_agrees
      && failed = List.rev !model_failed
      && List.rev !streams
         = List.combine (List.concat_map (List.map snd) model_pages) (List.rev !model_boxed)
      && Wafl_flash.Ftl.signature ftl = Wafl_flash.Ftl.signature model_ftl)

let test_quiesce_races_concurrent_submit () =
  (* One fiber quiesces while another keeps submitting: device service
     takes ~25 virtual µs, so the io2/io3 submissions land while the
     quiescer is parked on io1.  Quiesce must cover them too — it
     returns only when the group is truly idle. *)
  let g = geom () in
  let d = Disk.create g in
  let eng = Engine.create ~cores:4 () in
  let raid = ref None in
  let ios_at_quiesce = ref (-1) in
  ignore
    (Engine.spawn eng ~label:"submitter" (fun () ->
         let r = Raid.create eng ~cost:Cost.default ~disk:d ~rg:0 in
         raid := Some r;
         submit r ~writes:[ (Geometry.vbn_of g ~rg:0 ~drive:0 ~dbn:0, 0) ]
           ~on_complete:(fun () -> ());
         Engine.sleep 5.0;
         submit r ~writes:[ (Geometry.vbn_of g ~rg:0 ~drive:0 ~dbn:1, 1) ]
           ~on_complete:(fun () -> ());
         submit r ~writes:[ (Geometry.vbn_of g ~rg:0 ~drive:0 ~dbn:2, 2) ]
           ~on_complete:(fun () -> ())));
  ignore
    (Engine.spawn eng ~label:"quiescer" (fun () ->
         Engine.sleep 10.0;
         let r = Option.get !raid in
         Raid.quiesce r;
         ios_at_quiesce := Reg.count eng "raid.ios";
         Raid.shutdown r));
  Engine.run eng;
  Alcotest.(check int) "quiesce covered the racing submits" 3 !ios_at_quiesce

let () =
  Alcotest.run "wafl_storage"
    [
      ( "geometry",
        [
          Alcotest.test_case "totals" `Quick test_totals;
          Alcotest.test_case "vbn roundtrip" `Quick test_vbn_roundtrip;
          Alcotest.test_case "drive ranges disjoint" `Quick test_vbn_ranges_disjoint;
          Alcotest.test_case "aa ranges" `Quick test_aa_ranges;
          Alcotest.test_case "validation" `Quick test_geometry_validation;
          QCheck_alcotest.to_alcotest ~verbose:false prop_locate_inverts_vbn_of;
          Alcotest.test_case "rg_of/dbn_of/rg_offset" `Quick test_parts_match_locate;
        ] );
      ( "disk",
        [
          Alcotest.test_case "read/write" `Quick test_disk_read_write;
          Alcotest.test_case "bounds" `Quick test_disk_bounds;
          Alcotest.test_case "discard" `Quick test_disk_discard;
          Alcotest.test_case "unboxed slots" `Quick test_disk_unboxed_slots;
          Alcotest.test_case "pages made at first write" `Quick test_disk_pages_made_at_first_write;
          Alcotest.test_case "discard keeps neighbours" `Quick test_disk_discard_keeps_neighbours;
          Alcotest.test_case "last page" `Quick test_disk_last_page;
          Alcotest.test_case "compact round trip" `Quick test_compact_round_trip;
          Alcotest.test_case "compact boxed fallback" `Quick test_compact_boxed_fallback;
          Alcotest.test_case "compact/boxed overwrite" `Quick test_compact_overwrite;
          Alcotest.test_case "compact discard keeps neighbours" `Quick
            test_compact_discard_keeps_neighbours;
        ] );
      ( "raid",
        [
          Alcotest.test_case "write durable at completion" `Quick test_raid_write_durable;
          Alcotest.test_case "full vs partial stripes" `Quick test_raid_full_vs_partial_stripes;
          QCheck_alcotest.to_alcotest ~verbose:false prop_stripe_mix_matches_tally;
          QCheck_alcotest.to_alcotest ~verbose:false prop_batch_matches_list_model;
          Alcotest.test_case "parity penalty" `Quick test_raid_partial_pays_parity_penalty;
          Alcotest.test_case "foreign vbn rejected" `Quick test_raid_rejects_foreign_vbn;
          Alcotest.test_case "empty submit" `Quick test_raid_empty_submit_completes_inline;
          Alcotest.test_case "many IOs" `Quick test_raid_many_ios_in_order_counts;
          Alcotest.test_case "shutdown drains queued IOs" `Quick test_shutdown_drains_queued_ios;
          Alcotest.test_case "quiesce races concurrent submit" `Quick
            test_quiesce_races_concurrent_submit;
        ] );
      ( "faults",
        [
          Alcotest.test_case "media error reconstructed + repaired" `Quick
            test_media_error_reconstructed_and_repaired;
          Alcotest.test_case "transient failures retried" `Quick
            test_transient_failures_retried_in_virtual_time;
          Alcotest.test_case "disk failure: degraded then rebuilt" `Quick
            test_disk_failure_degraded_then_rebuilt;
          Alcotest.test_case "double failure is lost" `Quick test_double_failure_is_lost;
          Alcotest.test_case "write error lands in take_failed" `Quick
            test_write_error_lands_in_take_failed;
        ] );
    ]
