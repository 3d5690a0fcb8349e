open Wafl_util

(* Exact LRU over array slots.  Each resident pvbn owns a slot in [slots]
   (stride 2: pvbn, then the slot's links); the list head is the most
   recently used entry and the tail the eviction victim.  A links word
   packs prev + 1 above next + 1, 31 bits each, so -1 (nil) ends a list.
   Unused slots are chained through their next field.  [index] is an
   open-addressing table of one word per entry, the pvbn above its slot
   (31 bits; -1 marks an empty entry), with linear probing and
   backward-shift deletion, so no tombstones accumulate.  Both arrays
   are slabs of 64-bit words, off the heap; [get] and [set] read and
   write word [i] as an int.  Nothing here allocates once the arrays
   have grown to the working set; they double up to [capacity] slots as
   the cache fills. *)

type t = {
  capacity : int;
  mutable slots : Slab.t;
  mutable index : Slab.t;
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
let[@inline] get a i = Int64.to_int (Slab.unsafe_get64 a (8 * i))
let[@inline] set a i v = Slab.unsafe_set64 a (8 * i) (Int64.of_int v)

(* [n] words, each nil: every byte of -1 is 0xff. *)
let nils n = Slab.make (8 * n) '\255'
let words a = Slab.length a / 8

(* Pvbns and slots are below 2^31: one 31-bit field each. *)
let field_bits = 31
let field_mask = (1 lsl field_bits) - 1

(* Slot [s]'s fields. *)
let key t s = get t.slots (2 * s)
let links t s = get t.slots ((2 * s) + 1)
let prev t s = (links t s lsr field_bits) - 1
let next t s = (links t s land field_mask) - 1
let set_links t s ~prev ~next =
  set t.slots ((2 * s) + 1) (((prev + 1) lsl field_bits) lor (next + 1))

let set_prev t s p = set_links t s ~prev:p ~next:(next t s)
let set_next t s n = set_links t s ~prev:(prev t s) ~next:n

(* Slots [from .. nslots - 1] become the free chain. *)
let chain_free t ~from ~nslots =
  for s = from to nslots - 1 do
    set t.slots (2 * s) nil;
    set_links t s ~prev:nil ~next:(if s + 1 < nslots then s + 1 else nil)
  done;
  t.free <- (if from < nslots then from else nil)

(* An index of at least twice as many entries as there are slots keeps
   the load factor at or below one half. *)
let index_bits_for nslots =
  let rec go b = if 1 lsl b >= 2 * nslots then b else go (b + 1) in
  go 4

let home t pvbn = (pvbn * 0x9E3779B97F4A7C1) lsr (63 - t.index_bits)
let mask t = (1 lsl t.index_bits) - 1

(* An index entry's pvbn (-1 when empty) and slot. *)
let entry_key e = e asr field_bits
let entry_slot e = e land field_mask
let entry pvbn s = (pvbn lsl field_bits) lor s

(* Index entry holding [pvbn], or the empty entry where it would go. *)
let find t pvbn =
  let m = mask t in
  let i = ref (home t pvbn) in
  while
    let k = entry_key (get t.index !i) in
    k <> pvbn && k <> nil
  do
    i := (!i + 1) land m
  done;
  !i

let index_remove t i =
  let m = mask t in
  let hole = ref i and j = ref ((i + 1) land m) in
  while get t.index !j <> nil do
    let e = get t.index !j in
    let h = home t (entry_key e) in
    (* Entry [j] may move back into the hole unless its home lies
       cyclically in (hole, j]. *)
    let stays = if !hole <= !j then !hole < h && h <= !j else !hole < h || h <= !j in
    if not stays then begin
      set t.index !hole e;
      hole := !j
    end;
    j := (!j + 1) land m
  done;
  set t.index !hole nil

let create ~capacity =
  if capacity <= 0 then invalid_arg "Buffer_cache.create: capacity must be positive";
  if capacity > field_mask then invalid_arg "Buffer_cache.create: capacity must be below 2^31";
  let nslots = min capacity initial_slots in
  let index_bits = index_bits_for nslots in
  let t =
    {
      capacity;
      slots = nils (2 * nslots);
      index = nils (1 lsl index_bits);
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
  let old = words t.slots / 2 in
  let nslots = min t.capacity (2 * old) in
  let slots = nils (2 * nslots) in
  Slab.blit t.slots 0 slots 0 (16 * old);
  t.slots <- slots;
  chain_free t ~from:old ~nslots;
  t.index_bits <- index_bits_for nslots;
  t.index <- nils (1 lsl t.index_bits);
  for s = 0 to old - 1 do
    let k = key t s in
    if k <> nil then set t.index (find t k) (entry k s)
  done

let unlink t s =
  let p = prev t s and n = next t s in
  if p = nil then t.head <- n else set_next t p n;
  if n = nil then t.tail <- p else set_prev t n p

let push_front t s =
  set_links t s ~prev:nil ~next:t.head;
  if t.head = nil then t.tail <- s else set_prev t t.head s;
  t.head <- s

(* Unlink slot [s] and its index entry [i], and put the slot on the free
   chain. *)
let drop t s i =
  unlink t s;
  index_remove t i;
  set t.slots (2 * s) nil;
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
  if pvbn > field_mask then invalid_arg "Buffer_cache.probe: pvbn must be below 2^31";
  let i = find t pvbn in
  let e = get t.index i in
  if entry_key e = pvbn then begin
    t.n_hits <- t.n_hits + 1;
    let s = entry_slot e in
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
    set t.slots (2 * s) pvbn;
    push_front t s;
    (* Eviction and growth both move index entries: probe again. *)
    set t.index (find t pvbn) (entry pvbn s);
    t.len <- t.len + 1;
    false
  end

(* An empty index entry reads as pvbn -1, which is never resident. *)
let contains t pvbn = pvbn >= 0 && entry_key (get t.index (find t pvbn)) = pvbn

let invalidate t pvbn =
  let i = find t pvbn in
  let e = get t.index i in
  if pvbn >= 0 && entry_key e = pvbn then drop t (entry_slot e) i

let hits t = t.n_hits
let misses t = t.n_misses
let evictions t = t.n_evictions

let hit_rate t =
  let total = t.n_hits + t.n_misses in
  if total = 0 then 0.0 else float_of_int t.n_hits /. float_of_int total
