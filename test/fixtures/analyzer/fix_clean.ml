(* Negative fixture: the same sharing shapes as Fix_unprobed, but every
   spawned context declares its touches with Engine.probe_atomic — the
   analyzer must report nothing for this unit. *)
open Wafl_sim

let hits = ref 0

type acc = { mutable total : int }

let shared = { total = 0 }

let start eng =
  ignore
    (Engine.spawn eng ~label:"a" (fun () ->
         Engine.probe_atomic eng ~shared:"fix.counter";
         incr hits;
         shared.total <- shared.total + 1));
  ignore
    (Engine.spawn eng ~label:"b" (fun () ->
         Engine.probe_atomic eng ~shared:"fix.counter";
         incr hits;
         shared.total <- shared.total + 1))

let consistent a b =
  Mutex.lock a;
  Mutex.lock b;
  Mutex.unlock b;
  Mutex.unlock a
