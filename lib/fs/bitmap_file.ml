open Wafl_util

let words_per_block = Layout.bits_per_map_block / 64

(* The bit array lives in [Bytes], 8 bytes per word, read and written
   through the raw 64-bit primitives: an inlined [get]/[set] keeps the
   word unboxed, where an [int64 array] boxes every word it stores. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

type t = {
  nbits : int;
  words : Bytes.t;
  mutable free : int;
  dirty : Dense_set.t;
  mutable last_dirty : int; (* last block marked; skips the set test *)
  locations : Intvec.t; (* metafile block idx -> pvbn *)
  mutable scanned : int;
}

let create ~bits =
  if bits <= 0 then invalid_arg "Bitmap_file.create: bits must be positive";
  {
    nbits = bits;
    words = Bytes.make (8 * ((bits + 63) / 64)) '\000';
    free = bits;
    dirty = Dense_set.create ();
    last_dirty = -1;
    locations = Intvec.create ~default:(-1) ();
    scanned = 0;
  }

let nwords t = Bytes.length t.words / 8
let word t w = get64 t.words (8 * w)
let set_word t w x = set64 t.words (8 * w) x
let nbits t = t.nbits
let nblocks t = (t.nbits + Layout.bits_per_map_block - 1) / Layout.bits_per_map_block
let block_of_bit bit = bit / Layout.bits_per_map_block

let check t bit =
  if bit < 0 || bit >= t.nbits then
    invalid_arg (Printf.sprintf "Bitmap_file: bit %d out of range" bit)

let mem t bit =
  check t bit;
  Bitops.get (word t (bit lsr 6)) (bit land 63)

let mark_dirty t i =
  if i <> t.last_dirty then begin
    Dense_set.add t.dirty i;
    t.last_dirty <- i
  end

let set t bit =
  check t bit;
  let w = bit lsr 6 and i = bit land 63 in
  let x = word t w in
  if Bitops.get x i then
    invalid_arg (Printf.sprintf "Bitmap_file.set: bit %d already allocated" bit);
  set_word t w (Bitops.set x i);
  t.free <- t.free - 1;
  mark_dirty t (block_of_bit bit)

let clear t bit =
  check t bit;
  let w = bit lsr 6 and i = bit land 63 in
  let x = word t w in
  if not (Bitops.get x i) then
    invalid_arg (Printf.sprintf "Bitmap_file.clear: bit %d already free" bit);
  set_word t w (Bitops.clear x i);
  t.free <- t.free + 1;
  mark_dirty t (block_of_bit bit)

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
    (match Bitops.find_next_zero (word t !w) first_bit with
    | -1 -> incr w
    | i ->
        let bit = (!w * 64) + i in
        if bit <= hi then result := Some bit else w := last_word + 1);
    while !result = None && !w <= last_word do
      t.scanned <- t.scanned + 1;
      (match Bitops.find_first_zero (word t !w) with
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
      count := !count + (64 - Bitops.popcount (word t (!bit / 64)));
      bit := !bit + 64
    end
    else begin
      if not (mem t !bit) then incr count;
      incr bit
    end
  done;
  !count

let words_scanned t = t.scanned

let dirty_blocks t = Dense_set.elements t.dirty
let dirty_blocks_desc t = Dense_set.elements_desc t.dirty
let dirty_count t = Dense_set.cardinal t.dirty

let clear_dirty t =
  Dense_set.clear t.dirty;
  t.last_dirty <- -1

let words_of_block ?spares t i =
  if i < 0 || i >= nblocks t then invalid_arg "Bitmap_file.words_of_block: bad block";
  let off = i * words_per_block in
  let len = min words_per_block (nwords t - off) in
  Packed.of_words ?spares t.words ~pos:off ~len

let load_block t i payload =
  if i < 0 || i >= nblocks t then invalid_arg "Bitmap_file.load_block: bad block";
  let off = i * words_per_block in
  let len = min words_per_block (nwords t - off) in
  if Packed.length payload <> len then invalid_arg "Bitmap_file.load_block: size mismatch";
  (* Maintain the free count incrementally. *)
  for j = 0 to len - 1 do
    let w = Packed.get_int64 payload j in
    t.free <- t.free + Bitops.popcount (word t (off + j)) - Bitops.popcount w;
    set_word t (off + j) w
  done

let snapshot_words t = Array.init (nwords t) (word t)

let location t i = Intvec.get t.locations i
let locations t = Intvec.bindings t.locations

let set_location t i pvbn =
  let old = Intvec.get t.locations i in
  Intvec.set t.locations i pvbn;
  old
