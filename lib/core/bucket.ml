type target = Phys of { rg : int; drive : int } | Virt of { vol : int }

type t = {
  target : target;
  tetris : Tetris.t option;
  vbns : int array;
  mutable next : int;
  mutable committed : bool;
}

let make ~target ?tetris ~vbns () =
  (match (target, tetris) with
  | Phys _, None -> invalid_arg "Bucket.make: physical bucket needs a tetris"
  | Virt _, Some _ -> invalid_arg "Bucket.make: virtual bucket cannot have a tetris"
  | Phys _, Some _ | Virt _, None -> ());
  { target; tetris; vbns; next = 0; committed = false }

let target t = t.target
let tetris t = t.tetris
let capacity t = Array.length t.vbns
let remaining t = Array.length t.vbns - t.next
let is_exhausted t = remaining t = 0

let[@inline] take_vbn t =
  if is_exhausted t then -1
  else begin
    let v = t.vbns.(t.next) in
    t.next <- t.next + 1;
    v
  end

let take t =
  let v = take_vbn t in
  if v < 0 then None else Some v

let vbns t = t.vbns
let consumed_count t = t.next
let mark_committed t = t.committed <- true
let is_committed t = t.committed
