open Wafl_util

type t = { bits : int64 array; lists : Intvec.t array }

let create ~bits =
  {
    bits = Array.make ((bits + 63) / 64) 0L;
    lists =
      Array.init
        ((bits + Layout.bits_per_map_block - 1) / Layout.bits_per_map_block)
        (fun _ -> Intvec.create ~default:(-1) ());
  }

let add t v =
  let w = v lsr 6 in
  t.bits.(w) <- Int64.logor t.bits.(w) (Int64.shift_left 1L (v land 63));
  let l = t.lists.(v / Layout.bits_per_map_block) in
  Intvec.set l (Intvec.length l) v

let mem t v = Int64.logand t.bits.(v lsr 6) (Int64.shift_left 1L (v land 63)) <> 0L

(* Every set bit is on a list, so zeroing each listed word clears the
   whole bitmap. *)
let release t f =
  Array.iter
    (fun l ->
      Intvec.iteri_set l (fun _ v ->
          t.bits.(v lsr 6) <- 0L;
          f v);
      Intvec.clear l)
    t.lists
