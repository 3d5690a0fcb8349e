type target = Phys | Virt of { vol : int }

type t = { target : target; items : int array; mutable len : int }

let create ~target ~capacity =
  if capacity <= 0 then invalid_arg "Stage.create: capacity must be positive";
  { target; items = Array.make capacity 0; len = 0 }

let capacity t = Array.length t.items
let length t = t.len
let is_empty t = t.len = 0

let add t vbn =
  if t.len = Array.length t.items then invalid_arg "Stage.add: stage is full";
  t.items.(t.len) <- vbn;
  t.len <- t.len + 1;
  if t.len = Array.length t.items then `Full else `Ok

(* Stagers mostly add VBNs in ascending order, so an insertion sort
   usually just confirms the order; it sorts in place without
   allocating. *)
let sort_ascending a =
  for i = 1 to Array.length a - 1 do
    let v = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > v do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- v
  done

let drain t =
  let items = Array.sub t.items 0 t.len in
  t.len <- 0;
  sort_ascending items;
  items
