(* Ring-buffer trace sink.

   Bounded so a long run cannot exhaust memory: when full, the oldest
   events are overwritten and counted as dropped (the exporter reports
   the drop count, so a truncated trace is never mistaken for a complete
   one).  Mutation goes through [record] only, and only the Wafl_obs
   modules may call it — wafl_lint enforces that every other module emits
   through the Trace API. *)

type ev = {
  ph : char;  (* 'X' complete span, 'i' instant, 'C' counter sample,
                 's'/'f' flow start/finish (causal edge) *)
  cat : string;
  name : string;
  ts : float; (* virtual microseconds *)
  dur : float; (* 'X': span duration; 'C': sampled value *)
  tid : int; (* fiber id; Race.main_fid (-1) outside fiber context *)
  flow : int; (* 's'/'f': edge id pairing the two halves; 0 = none *)
  args : (string * string) list;
  num_args : (string * float) list;
}

type t = {
  cap : int;
  buf : ev option array;
  mutable next : int; (* slot receiving the next event *)
  mutable len : int;
  mutable n_dropped : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Sink.create: capacity must be positive";
  { cap = capacity; buf = Array.make capacity None; next = 0; len = 0; n_dropped = 0 }

let record t ev =
  if t.len = t.cap then t.n_dropped <- t.n_dropped + 1 else t.len <- t.len + 1;
  t.buf.(t.next) <- Some ev;
  t.next <- (t.next + 1) mod t.cap

let capacity t = t.cap
let length t = t.len
let dropped t = t.n_dropped

(* Oldest to newest. *)
let iter t f =
  let start = (t.next - t.len + t.cap) mod t.cap in
  for i = 0 to t.len - 1 do
    match t.buf.((start + i) mod t.cap) with Some ev -> f ev | None -> ()
  done
