(* Elements occupy [len] consecutive slots (mod the capacity) starting at
   [head]; every other slot holds [dummy].  The capacity is zero until
   the first push (a structure may own many rings that never fill), then
   a power of two of at least [min_capacity], so wrapping is a mask. *)
type 'a t = { dummy : 'a; mutable buf : 'a array; mutable head : int; mutable len : int }

let min_capacity = 8

let create ~dummy = { dummy; buf = [||]; head = 0; len = 0 }
let length t = t.len
let is_empty t = t.len = 0
let capacity t = Array.length t.buf

(* Copy the elements, oldest first, to the front of a fresh array. *)
let resize t cap =
  let buf = Array.make cap t.dummy in
  let mask = Array.length t.buf - 1 in
  for i = 0 to t.len - 1 do
    buf.(i) <- t.buf.((t.head + i) land mask)
  done;
  t.buf <- buf;
  t.head <- 0

let push t x =
  let cap = Array.length t.buf in
  if t.len = cap then resize t (max min_capacity (2 * cap));
  t.buf.((t.head + t.len) land (Array.length t.buf - 1)) <- x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Fifo.pop: empty";
  let x = t.buf.(t.head) in
  t.buf.(t.head) <- t.dummy;
  let cap = Array.length t.buf in
  t.head <- (t.head + 1) land (cap - 1);
  t.len <- t.len - 1;
  if cap > min_capacity && t.len <= cap / 8 then resize t (cap / 2);
  x

let peek t =
  if t.len = 0 then invalid_arg "Fifo.peek: empty";
  t.buf.(t.head)
