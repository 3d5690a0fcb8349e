type t = Bytes.t
type spares = { slots : int; mutable free : t list }

let spares ~slots = { slots; free = [] }
let recycle s b = if Bytes.length b = 8 * s.slots then s.free <- b :: s.free

(* A buffer of [len] slots, contents unspecified: a spare when one fits. *)
let buffer spares len =
  match spares with
  | Some ({ free = b :: rest; _ } as s) when s.slots = len ->
      s.free <- rest;
      b
  | _ -> Bytes.create (8 * len)

(* The fill-into-buffer forms, the only code that writes slots: every
   slot of [b] is written exactly once.  [of_ints] / [of_int64s] check
   the range, pick the buffer and call these. *)
let fill_ints b a ~pos ~default =
  let len = Bytes.length b / 8 in
  let avail = max 0 (min len (Array.length a - pos)) in
  for i = 0 to avail - 1 do
    Bytes.set_int64_ne b (8 * i) (Int64.of_int a.(pos + i))
  done;
  let d = Int64.of_int default in
  for i = avail to len - 1 do
    Bytes.set_int64_ne b (8 * i) d
  done;
  b

let fill_int64s b a ~pos =
  for i = 0 to (Bytes.length b / 8) - 1 do
    Bytes.set_int64_ne b (8 * i) a.(pos + i)
  done;
  b

let of_ints ?spares a ~pos ~len ~default =
  if pos < 0 || len < 0 then invalid_arg "Packed.of_ints";
  fill_ints (buffer spares len) a ~pos ~default

let of_int64s ?spares a ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length a then invalid_arg "Packed.of_int64s";
  fill_int64s (buffer spares len) a ~pos

let length b = Bytes.length b / 8
let get_int64 b i = Bytes.get_int64_ne b (8 * i)
let get b i = Int64.to_int (get_int64 b i)
