(* Exact LRU over array slots.  Each resident pvbn owns a slot in [slots]
   (stride 3: pvbn, prev slot, next slot; -1 ends a list); the list head
   is the most recently used entry and the tail the eviction victim.
   Unused slots are chained through their next field.  [index] is an
   open-addressing table (stride 2: pvbn, slot; -1 marks an empty entry)
   with linear probing and backward-shift deletion, so no tombstones
   accumulate.  Nothing here allocates once the arrays have grown to the
   working set; they double up to [capacity] slots as the cache fills. *)

type t = {
  capacity : int;
  mutable slots : int array;
  mutable index : int array;
  mutable index_bits : int; (* the index has [1 lsl index_bits] entries *)
  mutable free : int; (* first unused slot, or -1 *)
  mutable head : int;
  mutable tail : int;
  mutable len : int;
  mutable n_hits : int;
  mutable n_misses : int;
  mutable n_evictions : int;
}

let nil = -1
let initial_slots = 1024

(* Slot [s]'s fields. *)
let key t s = Array.unsafe_get t.slots (3 * s)
let prev t s = Array.unsafe_get t.slots ((3 * s) + 1)
let next t s = Array.unsafe_get t.slots ((3 * s) + 2)
let set_prev t s p = Array.unsafe_set t.slots ((3 * s) + 1) p
let set_next t s n = Array.unsafe_set t.slots ((3 * s) + 2) n

(* Slots [from .. nslots - 1] become the free chain. *)
let chain_free t ~from ~nslots =
  for s = from to nslots - 1 do
    Array.unsafe_set t.slots (3 * s) nil;
    set_next t s (if s + 1 < nslots then s + 1 else nil)
  done;
  t.free <- (if from < nslots then from else nil)

(* An index of at least twice as many entries as there are slots keeps
   the load factor at or below one half. *)
let index_bits_for nslots =
  let rec go b = if 1 lsl b >= 2 * nslots then b else go (b + 1) in
  go 4

let home t pvbn = (pvbn * 0x9E3779B97F4A7C1) lsr (63 - t.index_bits)
let mask t = (1 lsl t.index_bits) - 1

(* Index entry holding [pvbn], or the empty entry where it would go. *)
let find t pvbn =
  let m = mask t in
  let i = ref (home t pvbn) in
  while
    let k = Array.unsafe_get t.index (2 * !i) in
    k <> pvbn && k <> nil
  do
    i := (!i + 1) land m
  done;
  !i

let index_set t i pvbn s =
  Array.unsafe_set t.index (2 * i) pvbn;
  Array.unsafe_set t.index ((2 * i) + 1) s

let index_remove t i =
  let m = mask t in
  let hole = ref i and j = ref ((i + 1) land m) in
  while Array.unsafe_get t.index (2 * !j) <> nil do
    let k = Array.unsafe_get t.index (2 * !j) in
    let h = home t k in
    (* Entry [j] may move back into the hole unless its home lies
       cyclically in (hole, j]. *)
    let stays = if !hole <= !j then !hole < h && h <= !j else !hole < h || h <= !j in
    if not stays then begin
      index_set t !hole k (Array.unsafe_get t.index ((2 * !j) + 1));
      hole := !j
    end;
    j := (!j + 1) land m
  done;
  index_set t !hole nil nil

let create ~capacity =
  if capacity <= 0 then invalid_arg "Buffer_cache.create: capacity must be positive";
  let nslots = min capacity initial_slots in
  let index_bits = index_bits_for nslots in
  let t =
    {
      capacity;
      slots = Array.make (3 * nslots) nil;
      index = Array.make (2 lsl index_bits) nil;
      index_bits;
      free = nil;
      head = nil;
      tail = nil;
      len = 0;
      n_hits = 0;
      n_misses = 0;
      n_evictions = 0;
    }
  in
  chain_free t ~from:0 ~nslots;
  t

let capacity t = t.capacity
let length t = t.len

(* Double the slot array (up to [capacity]) and rebuild the index for
   the new slot count. *)
let grow t =
  let old = Array.length t.slots / 3 in
  let nslots = min t.capacity (2 * old) in
  let slots = Array.make (3 * nslots) nil in
  Array.blit t.slots 0 slots 0 (3 * old);
  t.slots <- slots;
  chain_free t ~from:old ~nslots;
  t.index_bits <- index_bits_for nslots;
  t.index <- Array.make (2 lsl t.index_bits) nil;
  for s = 0 to old - 1 do
    let k = key t s in
    if k <> nil then index_set t (find t k) k s
  done

let unlink t s =
  let p = prev t s and n = next t s in
  if p = nil then t.head <- n else set_next t p n;
  if n = nil then t.tail <- p else set_prev t n p

let push_front t s =
  set_prev t s nil;
  set_next t s t.head;
  if t.head = nil then t.tail <- s else set_prev t t.head s;
  t.head <- s

(* Unlink slot [s] and its index entry [i], and put the slot on the free
   chain. *)
let drop t s i =
  unlink t s;
  index_remove t i;
  Array.unsafe_set t.slots (3 * s) nil;
  set_next t s t.free;
  t.free <- s;
  t.len <- t.len - 1

let evict_lru t =
  let s = t.tail in
  if s <> nil then begin
    drop t s (find t (key t s));
    t.n_evictions <- t.n_evictions + 1
  end

let probe t pvbn =
  if pvbn < 0 then invalid_arg "Buffer_cache.probe: negative pvbn";
  let i = find t pvbn in
  if Array.unsafe_get t.index (2 * i) = pvbn then begin
    t.n_hits <- t.n_hits + 1;
    let s = Array.unsafe_get t.index ((2 * i) + 1) in
    if s <> t.head then begin
      unlink t s;
      push_front t s
    end;
    true
  end
  else begin
    t.n_misses <- t.n_misses + 1;
    if t.len >= t.capacity then evict_lru t
    else if t.free = nil then grow t;
    let s = t.free in
    t.free <- next t s;
    Array.unsafe_set t.slots (3 * s) pvbn;
    push_front t s;
    (* Eviction and growth both move index entries: probe again. *)
    index_set t (find t pvbn) pvbn s;
    t.len <- t.len + 1;
    false
  end

let contains t pvbn = pvbn >= 0 && Array.unsafe_get t.index (2 * find t pvbn) = pvbn

let invalidate t pvbn =
  let i = find t pvbn in
  if pvbn >= 0 && Array.unsafe_get t.index (2 * i) = pvbn then drop t (Array.unsafe_get t.index ((2 * i) + 1)) i

let hits t = t.n_hits
let misses t = t.n_misses
let evictions t = t.n_evictions

let hit_rate t =
  let total = t.n_hits + t.n_misses in
  if total = 0 then 0.0 else float_of_int t.n_hits /. float_of_int total

let clear t =
  let nslots = Array.length t.slots / 3 in
  Array.fill t.index 0 (Array.length t.index) nil;
  chain_free t ~from:0 ~nslots;
  t.head <- nil;
  t.tail <- nil;
  t.len <- 0
