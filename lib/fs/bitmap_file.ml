open Wafl_util

let words_per_block = Layout.bits_per_map_block / 64

(* The bit array lives in a slab, 8 bytes per word, off the heap: an
   inlined [get]/[set] keeps the word unboxed, where an [int64 array]
   boxes every word it stores. *)
type t = {
  nbits : int;
  words : Slab.t;
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
    words = Slab.make (8 * ((bits + 63) / 64)) '\000';
    free = bits;
    dirty = Dense_set.create ();
    last_dirty = -1;
    locations = Intvec.create ~default:(-1) ();
    scanned = 0;
  }

let nwords t = Slab.length t.words / 8
let word t w = Slab.get64 t.words (8 * w)
let set_word t w x = Slab.set64 t.words (8 * w) x
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

(* A loop of [find_free] calls scans, per call, every word from the one
   holding its start through the one holding its answer (or through
   [hi]'s word when there is none).  [pos] tracks where that loop's next
   call would start, so [scanned] grows by exactly what the loop adds. *)
let iter_free t ~lo ~hi f =
  if lo <= hi then begin
    check t lo;
    check t hi;
    let first = lo lsr 6 and last = hi lsr 6 in
    let pos = ref lo in
    for w = first to last do
      let free = ref (Int64.lognot (word t w)) in
      if w = first then free := Int64.logand !free (Int64.shift_left (-1L) (lo land 63));
      if w = last then
        free := Int64.logand !free (Int64.shift_right_logical (-1L) (63 - (hi land 63)));
      while !free <> 0L do
        let v = (w lsl 6) + Bitops.ctz !free in
        t.scanned <- t.scanned + w - (!pos lsr 6) + 1;
        pos := v + 1;
        f v;
        free := Int64.logand !free (Int64.sub !free 1L)
      done
    done;
    if !pos <= hi then t.scanned <- t.scanned + last - (!pos lsr 6) + 1
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
  if Packed.word_count payload <> len then invalid_arg "Bitmap_file.load_block: size mismatch";
  (* Maintain the free count incrementally. *)
  for j = 0 to len - 1 do
    let w = Packed.get_int64 payload j in
    t.free <- t.free + Bitops.popcount (word t (off + j)) - Bitops.popcount w;
    set_word t (off + j) w
  done

let snapshot_words t = Array.init (nwords t) (word t)
let slab_bytes t = Slab.length t.words + Intvec.bytes t.locations

let location t i = Intvec.get t.locations i
let locations t = Intvec.bindings t.locations

let set_location t i pvbn =
  let old = Intvec.get t.locations i in
  Intvec.set t.locations i pvbn;
  old
