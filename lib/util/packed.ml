type t = Bytes.t

let of_ints a ~pos ~len ~default =
  if pos < 0 || len < 0 then invalid_arg "Packed.of_ints";
  let b = Bytes.create (8 * len) in
  let avail = max 0 (min len (Array.length a - pos)) in
  for i = 0 to avail - 1 do
    Bytes.set_int64_ne b (8 * i) (Int64.of_int a.(pos + i))
  done;
  let d = Int64.of_int default in
  for i = avail to len - 1 do
    Bytes.set_int64_ne b (8 * i) d
  done;
  b

let of_int64s a ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length a then invalid_arg "Packed.of_int64s";
  let b = Bytes.create (8 * len) in
  for i = 0 to len - 1 do
    Bytes.set_int64_ne b (8 * i) a.(pos + i)
  done;
  b

let length b = Bytes.length b / 8
let get_int64 b i = Bytes.get_int64_ne b (8 * i)
let get b i = Int64.to_int (get_int64 b i)
