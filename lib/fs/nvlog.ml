open Wafl_util

type op =
  | Create_vol of { vol : int; vvbn_space : int }
  | Create_file of { vol : int; file : int }
  | Write of { vol : int; file : int; fbn : int; content : int64 }
  | Delete_file of { vol : int; file : int }

exception Exhausted

type watermarks = { soft : float; hard : float; pace : float }

(* Records live in a ring of fixed-width slots in [ring]: record [i]
   (oldest first, the CP half then the filling half) is the slot
   [(head + i) land (slots - 1)].  A slot is four 64-bit words: the
   volume shifted left two bits over the op kind, then the file (or the
   vvbn space), the fbn and the content; a word an op has no field for
   is zero.  The ring doubles when full and never shrinks. *)
type t = {
  half_capacity : int;
  mutable ring : Slab.t;
  mutable slots : int; (* a power of two *)
  mutable head : int;
  mutable cp_len : int;
  mutable filling_len : int;
  mutable cp_active : bool;
  mutable torn : int; (* newest filling records torn by a crash *)
  wm : watermarks option;
}

let slot_bytes = 32
let initial_slots = 64

let check_watermarks = function
  | None -> ()
  | Some { soft; hard; pace } ->
      if not (0.0 < soft && soft < hard && hard <= 1.0) then
        invalid_arg "Nvlog: watermarks need 0 < soft < hard <= 1";
      if pace < 0.0 then invalid_arg "Nvlog: negative pacing delay"

let create ?(half_capacity = 16384) ?watermarks () =
  if half_capacity <= 0 then invalid_arg "Nvlog.create: bad capacity";
  check_watermarks watermarks;
  {
    half_capacity;
    ring = Slab.make (slot_bytes * initial_slots) '\000';
    slots = initial_slots;
    head = 0;
    cp_len = 0;
    filling_len = 0;
    cp_active = false;
    torn = 0;
    wm = watermarks;
  }

let capacity t = 2 * t.half_capacity
let is_exhausted t = t.filling_len >= 2 * t.half_capacity
let offset t i = slot_bytes * ((t.head + i) land (t.slots - 1))

(* Double the ring, copying the records oldest first to slot 0. *)
let grow t =
  let ring = Slab.make (2 * Slab.length t.ring) '\000' in
  let first = t.slots - t.head in
  Slab.blit t.ring (slot_bytes * t.head) ring 0 (slot_bytes * first);
  Slab.blit t.ring 0 ring (slot_bytes * first) (slot_bytes * t.head);
  t.ring <- ring;
  t.slots <- 2 * t.slots;
  t.head <- 0

let push t ~kind ~vol a b content =
  if is_exhausted t then raise Exhausted;
  if t.cp_len + t.filling_len = t.slots then grow t;
  let off = offset t (t.cp_len + t.filling_len) in
  Slab.unsafe_set64 t.ring off (Int64.of_int ((vol lsl 2) lor kind));
  Slab.unsafe_set64 t.ring (off + 8) (Int64.of_int a);
  Slab.unsafe_set64 t.ring (off + 16) (Int64.of_int b);
  Slab.unsafe_set64 t.ring (off + 24) content;
  t.filling_len <- t.filling_len + 1;
  if t.filling_len >= t.half_capacity then `Half_full else `Ok

let append_write t ~vol ~file ~fbn ~content = push t ~kind:2 ~vol file fbn content

let append t = function
  | Create_vol { vol; vvbn_space } -> push t ~kind:0 ~vol vvbn_space 0 0L
  | Create_file { vol; file } -> push t ~kind:1 ~vol file 0 0L
  | Write { vol; file; fbn; content } -> append_write t ~vol ~file ~fbn ~content
  | Delete_file { vol; file } -> push t ~kind:3 ~vol file 0 0L

(* Decode record [i]: only the crash and recovery paths build ops. *)
let op_at t i =
  let off = offset t i in
  let w0 = Int64.to_int (Slab.unsafe_get64 t.ring off) in
  let vol = w0 asr 2 and a = Int64.to_int (Slab.unsafe_get64 t.ring (off + 8)) in
  match w0 land 3 with
  | 0 -> Create_vol { vol; vvbn_space = a }
  | 1 -> Create_file { vol; file = a }
  | 2 ->
      Write
        {
          vol;
          file = a;
          fbn = Int64.to_int (Slab.unsafe_get64 t.ring (off + 16));
          content = Slab.unsafe_get64 t.ring (off + 24);
        }
  | _ -> Delete_file { vol; file = a }

let is_half_full t = t.filling_len >= t.half_capacity

(* Leave headroom for operations already in flight through the message
   scheduler when the throttle check happens in the client thread. *)
let is_nearly_full t = t.filling_len >= (2 * t.half_capacity) - (t.half_capacity / 8)
let pending t = t.filling_len
let in_cp t = t.cp_len
let total_pending t = t.filling_len + t.cp_len
let watermarks t = t.wm

let cp_begin t =
  if t.cp_active then invalid_arg "Nvlog.cp_begin: CP already active";
  t.cp_len <- t.filling_len;
  t.filling_len <- 0;
  t.cp_active <- true

let cp_commit t =
  if not t.cp_active then invalid_arg "Nvlog.cp_commit: no CP active";
  t.head <- (t.head + t.cp_len) land (t.slots - 1);
  t.cp_len <- 0;
  t.cp_active <- false

(* Tear the newest [records] still readable in the filling half, as a
   crash would tear records whose NVRAM DMA was still in flight (their
   acknowledgements never left the box).  A second tear reaches the
   records just older than the first one's.  Returns the torn
   operations, oldest first, so the crash harness can retract those
   acknowledgements from its oracle. *)
let tear t ~records =
  if records < 0 then invalid_arg "Nvlog.tear: negative record count";
  let live = t.cp_len + t.filling_len - t.torn in
  let k = min records (t.filling_len - t.torn) in
  t.torn <- t.torn + k;
  List.init k (fun j -> op_at t (live - k + j))

let torn t = t.torn

(* Replay stops cleanly at the first torn record: torn records are the
   newest ones, so the replayable prefix is everything before them. *)
let replay_ops t = List.init (t.cp_len + t.filling_len - t.torn) (op_at t)

let recover_reset t =
  t.filling_len <- t.cp_len + t.filling_len - t.torn;
  t.torn <- 0;
  t.cp_len <- 0;
  t.cp_active <- false
