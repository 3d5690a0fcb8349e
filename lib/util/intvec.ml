(* Entries are signed 32-bit ints, 4 bytes apiece in one slab (the
   layout of a {!Packed} entry image), so they live off the heap and
   [extract] is one blit.  Every slot at or past [len] holds the
   default. *)
type t = { default : int; mutable data : Slab.t; mutable len : int }

let in_range v = v >= Packed.min_entry && v <= Packed.max_entry

let fill data ~from ~upto v =
  for i = from to upto - 1 do
    Slab.unsafe_set32 data (4 * i) v
  done

let create ?(initial_capacity = 16) ~default () =
  if initial_capacity <= 0 then invalid_arg "Intvec.create: bad capacity";
  if not (in_range default) then invalid_arg "Intvec.create: default outside [-2^31, 2^31)";
  let data = Slab.create (4 * initial_capacity) in
  fill data ~from:0 ~upto:initial_capacity default;
  { default; data; len = 0 }

let length t = t.len
let capacity t = Slab.length t.data / 4
let bytes t = Slab.length t.data

(* Below [t.len], so inside [data]. *)
let[@inline] raw t i = Slab.unsafe_get32 t.data (4 * i)

let get t i =
  if i < 0 then invalid_arg "Intvec.get: negative index";
  if i >= t.len then t.default else raw t i

let set t i v =
  if i < 0 then invalid_arg "Intvec.set: negative index";
  if not (in_range v) then invalid_arg "Intvec.set: value outside [-2^31, 2^31)";
  let cap = capacity t in
  if i >= cap then begin
    let n = ref cap in
    while i >= !n do
      n := !n * 2
    done;
    let bigger = Slab.create (4 * !n) in
    Slab.blit t.data 0 bigger 0 (4 * cap);
    fill bigger ~from:cap ~upto:!n t.default;
    t.data <- bigger
  end;
  Slab.unsafe_set32 t.data (4 * i) v;
  if i >= t.len then t.len <- i + 1

let extract ?spares t ~pos ~len = Packed.of_entries ?spares t.data ~pos ~len ~default:t.default

let iteri_set t f =
  for i = 0 to t.len - 1 do
    let v = raw t i in
    if v <> t.default then f i v
  done

let bindings t =
  let n = ref 0 in
  iteri_set t (fun _ _ -> incr n);
  let out = Array.make !n (0, 0) and k = ref 0 in
  iteri_set t (fun i v ->
      out.(!k) <- (i, v);
      incr k);
  out

let clear t =
  fill t.data ~from:0 ~upto:t.len t.default;
  t.len <- 0

let copy t = { t with data = Slab.copy t.data }
