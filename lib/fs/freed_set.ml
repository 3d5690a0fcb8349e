open Wafl_util

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

(* The frozen-VBN bitmap, 8 bytes per 64-bit word: see Bitmap_file. *)
type t = { bits : Bytes.t; lists : Intvec.t array }

let create ~bits =
  {
    bits = Bytes.make (8 * ((bits + 63) / 64)) '\000';
    lists =
      Array.init
        ((bits + Layout.bits_per_map_block - 1) / Layout.bits_per_map_block)
        (fun _ -> Intvec.create ~default:(-1) ());
  }

let add t v =
  let off = 8 * (v lsr 6) in
  set64 t.bits off (Int64.logor (get64 t.bits off) (Int64.shift_left 1L (v land 63)));
  let l = t.lists.(v / Layout.bits_per_map_block) in
  Intvec.set l (Intvec.length l) v

let mem t v = Int64.logand (get64 t.bits (8 * (v lsr 6))) (Int64.shift_left 1L (v land 63)) <> 0L

(* Every set bit is on a list, so zeroing each listed word clears the
   whole bitmap. *)
let release t f =
  Array.iter
    (fun l ->
      Intvec.iteri_set l (fun _ v ->
          set64 t.bits (8 * (v lsr 6)) 0L;
          f v);
      Intvec.clear l)
    t.lists
