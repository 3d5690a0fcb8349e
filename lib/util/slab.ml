(* A one-dimensional [char] bigarray: its data is malloc'd, so only the
   custom block that points at it lives in the heap.  The accessors are
   the compiler's bigstring primitives, which ocamlopt turns into a
   bounds check and one load or store. *)
type t = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

external get32_raw : t -> int -> int32 = "%caml_bigstring_get32"
external set32_raw : t -> int -> int32 -> unit = "%caml_bigstring_set32"
external get64_raw : t -> int -> int64 = "%caml_bigstring_get64"
external set64_raw : t -> int -> int64 -> unit = "%caml_bigstring_set64"
external unsafe_get32_raw : t -> int -> int32 = "%caml_bigstring_get32u"
external unsafe_set32_raw : t -> int -> int32 -> unit = "%caml_bigstring_set32u"
external unsafe_get64_raw : t -> int -> int64 = "%caml_bigstring_get64u"
external unsafe_set64_raw : t -> int -> int64 -> unit = "%caml_bigstring_set64u"

let create n = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n
let empty = create 0
let[@inline] length b = Bigarray.Array1.dim b
let[@inline] get32 b off = Int32.to_int (get32_raw b off)
let[@inline] set32 b off v = set32_raw b off (Int32.of_int v)
let[@inline] get64 b off = get64_raw b off
let[@inline] set64 b off v = set64_raw b off v
let[@inline] unsafe_get32 b off = Int32.to_int (unsafe_get32_raw b off)
let[@inline] unsafe_set32 b off v = unsafe_set32_raw b off (Int32.of_int v)
let[@inline] unsafe_get64 b off = unsafe_get64_raw b off
let[@inline] unsafe_set64 b off v = unsafe_set64_raw b off v

let check name b pos len =
  if pos < 0 || len < 0 || pos > length b - len then invalid_arg name

(* Word loops, not [Bigarray.Array1.sub]: a sub-array is a fresh custom
   block per call. *)
let fill b ~pos ~len c =
  check "Slab.fill" b pos len;
  let byte = Int64.of_int (Char.code c) in
  let w = Int64.mul byte 0x0101_0101_0101_0101L in
  let words = len / 8 in
  for i = 0 to words - 1 do
    unsafe_set64 b (pos + (8 * i)) w
  done;
  for i = pos + (8 * words) to pos + len - 1 do
    Bigarray.Array1.unsafe_set b i c
  done

(* Overlapping ranges in one slab copy from the far end when the
   destination lies above the source, so no byte is read after it is
   overwritten. *)
let blit src spos dst dpos len =
  check "Slab.blit" src spos len;
  check "Slab.blit" dst dpos len;
  let words = len / 8 and tail = len land 7 in
  if src == dst && dpos > spos then begin
    for i = len - 1 downto len - tail do
      Bigarray.Array1.unsafe_set dst (dpos + i) (Bigarray.Array1.unsafe_get src (spos + i))
    done;
    for i = words - 1 downto 0 do
      unsafe_set64 dst (dpos + (8 * i)) (unsafe_get64 src (spos + (8 * i)))
    done
  end
  else begin
    for i = 0 to words - 1 do
      unsafe_set64 dst (dpos + (8 * i)) (unsafe_get64 src (spos + (8 * i)))
    done;
    for i = len - tail to len - 1 do
      Bigarray.Array1.unsafe_set dst (dpos + i) (Bigarray.Array1.unsafe_get src (spos + i))
    done
  end

let make n c =
  let b = create n in
  fill b ~pos:0 ~len:n c;
  b

let copy b =
  let c = create (length b) in
  blit b 0 c 0 (length b);
  c
