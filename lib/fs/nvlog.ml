type op =
  | Create_vol of { vol : int; vvbn_space : int }
  | Create_file of { vol : int; file : int }
  | Write of { vol : int; file : int; fbn : int; content : int64 }
  | Delete_file of { vol : int; file : int }

exception Exhausted

type watermarks = { soft : float; hard : float; pace : float }

type t = {
  half_capacity : int;
  mutable filling : op list; (* newest first *)
  mutable filling_len : int;
  mutable cp_half : op list; (* newest first; [] when no CP active *)
  mutable cp_len : int; (* List.length cp_half, maintained incrementally *)
  mutable cp_active : bool;
  mutable torn : int; (* newest filling records torn by a crash *)
  mutable wm : watermarks option;
}

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
    filling = [];
    filling_len = 0;
    cp_half = [];
    cp_len = 0;
    cp_active = false;
    torn = 0;
    wm = watermarks;
  }

let capacity t = 2 * t.half_capacity
let is_exhausted t = t.filling_len >= 2 * t.half_capacity

let append t op =
  if is_exhausted t then raise Exhausted;
  t.filling <- op :: t.filling;
  t.filling_len <- t.filling_len + 1;
  if t.filling_len >= t.half_capacity then `Half_full else `Ok

let is_half_full t = t.filling_len >= t.half_capacity

(* Leave headroom for operations already in flight through the message
   scheduler when the throttle check happens in the client thread. *)
let is_nearly_full t = t.filling_len >= (2 * t.half_capacity) - (t.half_capacity / 8)
let pending t = t.filling_len
let in_cp t = t.cp_len
let total_pending t = t.filling_len + t.cp_len
let watermarks t = t.wm

let set_watermarks t wm =
  check_watermarks wm;
  t.wm <- wm

let cp_begin t =
  if t.cp_active then invalid_arg "Nvlog.cp_begin: CP already active";
  t.cp_half <- t.filling;
  t.cp_len <- t.filling_len;
  t.filling <- [];
  t.filling_len <- 0;
  t.cp_active <- true

let cp_commit t =
  if not t.cp_active then invalid_arg "Nvlog.cp_commit: no CP active";
  t.cp_half <- [];
  t.cp_len <- 0;
  t.cp_active <- false

(* Tear the newest [records] of the filling half, as a crash would tear
   records whose NVRAM DMA was still in flight (their acknowledgements
   never left the box).  Returns the torn operations, oldest first, so
   the crash harness can retract those acknowledgements from its oracle. *)
let tear t ~records =
  if records < 0 then invalid_arg "Nvlog.tear: negative record count";
  let k = min records (t.filling_len - t.torn) in
  let torn_ops, _ = Wafl_util.Lists.rev_take k t.filling in
  t.torn <- t.torn + k;
  torn_ops

let torn t = t.torn

let drop_torn t =
  let rec drop k l = if k = 0 then l else match l with [] -> [] | _ :: tl -> drop (k - 1) tl in
  drop t.torn t.filling

(* Replay stops cleanly at the first torn record: torn records are the
   newest ones, so the replayable prefix is everything before them. *)
let replay_ops t = List.rev t.cp_half @ List.rev (drop_torn t)

let recover_reset t =
  t.filling <- drop_torn t @ t.cp_half;
  t.filling_len <- List.length t.filling;
  t.torn <- 0;
  t.cp_half <- [];
  t.cp_len <- 0;
  t.cp_active <- false
