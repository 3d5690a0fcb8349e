open Wafl_util

let words_per_block = Layout.bits_per_map_block / 64

type t = {
  nbits : int;
  words : int64 array;
  mutable free : int;
  dirty : (int, unit) Hashtbl.t;
  mutable last_dirty : int; (* last block marked; skips the replace *)
  locations : Intvec.t; (* metafile block idx -> pvbn *)
  mutable scanned : int;
}

let create ~bits =
  if bits <= 0 then invalid_arg "Bitmap_file.create: bits must be positive";
  {
    nbits = bits;
    words = Array.make ((bits + 63) / 64) 0L;
    free = bits;
    dirty = Hashtbl.create 64;
    last_dirty = -1;
    locations = Intvec.create ~default:(-1) ();
    scanned = 0;
  }

let nbits t = t.nbits
let nblocks t = (t.nbits + Layout.bits_per_map_block - 1) / Layout.bits_per_map_block
let block_of_bit bit = bit / Layout.bits_per_map_block

let check t bit =
  if bit < 0 || bit >= t.nbits then
    invalid_arg (Printf.sprintf "Bitmap_file: bit %d out of range" bit)

let mem t bit =
  check t bit;
  Bitops.get t.words.(bit / 64) (bit mod 64)

let touch t bit = Hashtbl.replace t.dirty (block_of_bit bit) ()

let set t bit =
  check t bit;
  let w = bit / 64 and i = bit mod 64 in
  if Bitops.get t.words.(w) i then
    invalid_arg (Printf.sprintf "Bitmap_file.set: bit %d already allocated" bit);
  t.words.(w) <- Bitops.set t.words.(w) i;
  t.free <- t.free - 1;
  touch t bit

let clear t bit =
  check t bit;
  let w = bit / 64 and i = bit mod 64 in
  if not (Bitops.get t.words.(w) i) then
    invalid_arg (Printf.sprintf "Bitmap_file.clear: bit %d already free" bit);
  t.words.(w) <- Bitops.clear t.words.(w) i;
  t.free <- t.free + 1;
  touch t bit

let free_count t = t.free
let used_count t = t.nbits - t.free

let find_free t ~lo ~hi ~start =
  check t lo;
  check t hi;
  let from = max lo start in
  if from > hi then None
  else begin
    let result = ref None in
    let w = ref (from / 64) in
    let first_bit = from mod 64 in
    let last_word = hi / 64 in
    (* First, the partial word. *)
    t.scanned <- t.scanned + 1;
    (match Bitops.find_next_zero t.words.(!w) first_bit with
    | -1 -> incr w
    | i ->
        let bit = (!w * 64) + i in
        if bit <= hi then result := Some bit else w := last_word + 1);
    while !result = None && !w <= last_word do
      t.scanned <- t.scanned + 1;
      (match Bitops.find_first_zero t.words.(!w) with
      | -1 -> ()
      | i ->
          let bit = (!w * 64) + i in
          if bit <= hi then result := Some bit else w := last_word);
      incr w
    done;
    !result
  end

let count_free_in t ~lo ~hi =
  check t lo;
  check t hi;
  (* Ranges are word-aligned in practice (AAs are multiples of 64 blocks);
     handle stragglers bit-by-bit for generality. *)
  let count = ref 0 in
  let bit = ref lo in
  while !bit <= hi do
    if !bit mod 64 = 0 && !bit + 63 <= hi then begin
      t.scanned <- t.scanned + 1;
      count := !count + (64 - Bitops.popcount t.words.(!bit / 64));
      bit := !bit + 64
    end
    else begin
      if not (mem t !bit) then incr count;
      incr bit
    end
  done;
  !count

let words_scanned t = t.scanned

let dirty_blocks t =
  Hashtbl.fold (fun k () acc -> k :: acc) t.dirty [] |> List.sort Int.compare (* lint-ok: sorted *)

let dirty_blocks_desc t =
  Hashtbl.fold (fun k () acc -> k :: acc) t.dirty [] (* lint-ok: sorted below *)
  |> List.sort (fun a b -> Int.compare b a)

let dirty_count t = Hashtbl.length t.dirty
let mark_dirty t i =
  if i <> t.last_dirty then begin
    Hashtbl.replace t.dirty i ();
    t.last_dirty <- i
  end

let clear_dirty t =
  Hashtbl.clear t.dirty;
  t.last_dirty <- -1

let words_of_block ?spares t i =
  if i < 0 || i >= nblocks t then invalid_arg "Bitmap_file.words_of_block: bad block";
  let off = i * words_per_block in
  let len = min words_per_block (Array.length t.words - off) in
  Packed.of_int64s ?spares t.words ~pos:off ~len

let load_block t i payload =
  if i < 0 || i >= nblocks t then invalid_arg "Bitmap_file.load_block: bad block";
  let off = i * words_per_block in
  let len = min words_per_block (Array.length t.words - off) in
  if Packed.length payload <> len then invalid_arg "Bitmap_file.load_block: size mismatch";
  (* Maintain the free count incrementally. *)
  for j = 0 to len - 1 do
    let w = Packed.get_int64 payload j in
    t.free <- t.free + Bitops.popcount t.words.(off + j) - Bitops.popcount w;
    t.words.(off + j) <- w
  done

let snapshot_words t = Array.copy t.words

let location t i = Intvec.get t.locations i

let set_location t i pvbn =
  let old = Intvec.get t.locations i in
  Intvec.set t.locations i pvbn;
  old
