type t = { default : int; mutable data : int array; mutable len : int }

let create ?(initial_capacity = 16) ~default () =
  if initial_capacity <= 0 then invalid_arg "Intvec.create: bad capacity";
  { default; data = Array.make initial_capacity default; len = 0 }

let default t = t.default
let length t = t.len
let capacity t = Array.length t.data

let get t i =
  if i < 0 then invalid_arg "Intvec.get: negative index";
  if i >= t.len then t.default else t.data.(i)

let set t i v =
  if i < 0 then invalid_arg "Intvec.set: negative index";
  if i >= Array.length t.data then begin
    let cap = ref (Array.length t.data) in
    while i >= !cap do
      cap := !cap * 2
    done;
    let bigger = Array.make !cap t.default in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(i) <- v;
  if i >= t.len then t.len <- i + 1

(* The backing array's tail beyond [t.len] already holds the default,
   so one pass over [data] (default past its end) is the logical range. *)
let extract ?spares t ~pos ~len = Packed.of_ints ?spares t.data ~pos ~len ~default:t.default

let iteri_set t f =
  for i = 0 to t.len - 1 do
    if t.data.(i) <> t.default then f i t.data.(i)
  done

let bindings t =
  let n = ref 0 in
  for i = 0 to t.len - 1 do
    if t.data.(i) <> t.default then incr n
  done;
  let out = Array.make !n (0, 0) and k = ref 0 in
  for i = 0 to t.len - 1 do
    if t.data.(i) <> t.default then begin
      out.(!k) <- (i, t.data.(i));
      incr k
    end
  done;
  out

let clear t =
  Array.fill t.data 0 t.len t.default;
  t.len <- 0

let copy t = { default = t.default; data = Array.copy t.data; len = t.len }
