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

external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* [fill_ints] and [of_words]'s blit are the only code that writes
   slots: every slot of [b] is written exactly once.  [of_ints] has
   checked [pos >= 0] and picked the buffer, so slots below [avail] read
   inside [a] and the copy loops need no bounds checks. *)
let fill_ints b a ~pos ~default =
  let len = Bytes.length b / 8 in
  let avail = max 0 (min len (Array.length a - pos)) in
  for i = 0 to avail - 1 do
    set64u b (8 * i) (Int64.of_int (Array.unsafe_get a (pos + i)))
  done;
  let d = Int64.of_int default in
  for i = avail to len - 1 do
    set64u b (8 * i) d
  done;
  b

let of_ints ?spares a ~pos ~len ~default =
  if pos < 0 || len < 0 then invalid_arg "Packed.of_ints";
  fill_ints (buffer spares len) a ~pos ~default

let of_words ?spares src ~pos ~len =
  if pos < 0 || len < 0 || 8 * (pos + len) > Bytes.length src then invalid_arg "Packed.of_words";
  let b = buffer spares len in
  Bytes.blit src (8 * pos) b 0 (8 * len);
  b

let length b = Bytes.length b / 8
let get_int64 b i = Bytes.get_int64_ne b (8 * i)
let get b i = Int64.to_int (get_int64 b i)
