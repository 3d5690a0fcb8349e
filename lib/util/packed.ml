type 'k t = Slab.t
type entry
type word
type entries = entry t
type words = word t

let min_entry = -0x8000_0000
let max_entry = 0x7FFF_FFFF

type spares = { slots : int; mutable entry_bufs : Slab.t list; mutable word_bufs : Slab.t list }

let spares ~slots = { slots; entry_bufs = []; word_bufs = [] }

(* A dead buffer is a slab of one size or the other: a full block of
   either kind is refilled as any image of its size. *)
let recycle s b =
  let n = Slab.length b in
  if n = 4 * s.slots then s.entry_bufs <- b :: s.entry_bufs
  else if n = 8 * s.slots then s.word_bufs <- b :: s.word_bufs

let drop_spares s =
  s.entry_bufs <- [];
  s.word_bufs <- []

(* A buffer of [len] slots, contents unspecified: a spare when one fits. *)
let entry_buffer spares len =
  match spares with
  | Some ({ entry_bufs = b :: rest; _ } as s) when s.slots = len ->
      s.entry_bufs <- rest;
      b
  | _ -> Slab.create (4 * len)

let word_buffer spares len =
  match spares with
  | Some ({ word_bufs = b :: rest; _ } as s) when s.slots = len ->
      s.word_bufs <- rest;
      b
  | _ -> Slab.create (8 * len)

let in_entry_range v = v >= min_entry && v <= max_entry

(* [fill_default] and the two blits are the only code that writes
   slots: every slot of an image is written exactly once. *)
let fill_default b ~from ~default =
  for i = from to (Slab.length b / 4) - 1 do
    Slab.unsafe_set32 b (4 * i) default
  done;
  b

let of_entries ?spares src ~pos ~len ~default =
  if pos < 0 || len < 0 || not (in_entry_range default) then invalid_arg "Packed.of_entries";
  let b = entry_buffer spares len in
  let avail = max 0 (min len ((Slab.length src / 4) - pos)) in
  if avail > 0 then Slab.blit src (4 * pos) b 0 (4 * avail);
  fill_default b ~from:avail ~default

let length b = Slab.length b / 4
let get b i = Slab.get32 b (4 * i)

let of_words ?spares src ~pos ~len =
  if pos < 0 || len < 0 || 8 * (pos + len) > Slab.length src then invalid_arg "Packed.of_words";
  let b = word_buffer spares len in
  Slab.blit src (8 * pos) b 0 (8 * len);
  b

let word_count b = Slab.length b / 8
let get_int64 b i = Slab.get64 b (8 * i)
let bytes = Slab.length
