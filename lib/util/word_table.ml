(* Slot i is the 16 bytes at [16 * i]: the key plus one (0 when the slot
   is empty), then the value.  [mask] is the slot count minus one; the
   count is a power of two. *)
type t = { mutable slots : Slab.t; mutable mask : int; mutable len : int }

let initial_slots = 16
let create () = { slots = Slab.make (16 * initial_slots) '\000'; mask = initial_slots - 1; len = 0 }
let length t = t.len

(* Fibonacci hashing: take the index from the middle of the product,
   where every key bit mixes in. *)
let home mask k = ((k * 0x9E3779B97F4A7C1) lsr 16) land mask
let stored slots i = Int64.to_int (Slab.unsafe_get64 slots (16 * i))

(* The slot holding [k], or -1.  Loops, not local recursive functions:
   those would allocate a closure per call. *)
let slot t k =
  let i = ref (home t.mask k) and s = ref (stored t.slots (home t.mask k)) in
  while !s <> 0 && !s <> k + 1 do
    i := (!i + 1) land t.mask;
    s := stored t.slots !i
  done;
  if !s = 0 then -1 else !i

(* Store a binding known to be absent, in the first empty slot of its
   run. *)
let insert slots mask k v =
  let i = ref (home mask k) in
  while stored slots !i <> 0 do
    i := (!i + 1) land mask
  done;
  Slab.unsafe_set64 slots (16 * !i) (Int64.of_int (k + 1));
  Slab.unsafe_set64 slots ((16 * !i) + 8) v

let grow t =
  let old = t.slots in
  let n = 2 * (t.mask + 1) in
  let slots = Slab.make (16 * n) '\000' in
  for i = 0 to t.mask do
    let s = stored old i in
    if s <> 0 then insert slots (n - 1) (s - 1) (Slab.unsafe_get64 old ((16 * i) + 8))
  done;
  t.slots <- slots;
  t.mask <- n - 1

let replace t k v =
  if k < 0 then invalid_arg "Word_table.replace: negative key";
  let i = slot t k in
  if i >= 0 then Slab.unsafe_set64 t.slots ((16 * i) + 8) v
  else begin
    if 2 * (t.len + 1) > t.mask + 1 then grow t;
    insert t.slots t.mask k v;
    t.len <- t.len + 1
  end

let mem t k = k >= 0 && slot t k >= 0

let[@inline] find t k =
  let i = if k >= 0 then slot t k else -1 in
  if i < 0 then raise Not_found else Slab.unsafe_get64 t.slots ((16 * i) + 8)

(* Backward-shift deletion: walk the run after the hole, and move into
   the hole each entry whose home slot does not lie after the hole (in
   the run's cyclic order), so every entry stays reachable from its home
   without tombstones. *)
let remove t k =
  let i = if k >= 0 then slot t k else -1 in
  if i >= 0 then begin
    let slots = t.slots and mask = t.mask in
    let hole = ref i and j = ref ((i + 1) land mask) in
    while stored slots !j <> 0 do
      let h = home mask (stored slots !j - 1) in
      if (!j - h) land mask >= (!j - !hole) land mask then begin
        Slab.blit slots (16 * !j) slots (16 * !hole) 16;
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    Slab.unsafe_set64 slots (16 * !hole) 0L;
    t.len <- t.len - 1
  end
