(* Positive fixture: blocking primitives reached while a mutex is held —
   directly (Engine.sleep between lock and unlock, or inside
   Mutex.protect) and transitively (a helper that sleeps, called under
   the lock). *)
open Wafl_sim

let slow_path () = Engine.sleep 5.0

let direct m =
  Mutex.lock m;
  Engine.sleep 1.0;
  Mutex.unlock m

let indirect m =
  Mutex.lock m;
  slow_path ();
  Mutex.unlock m

let scoped m = Mutex.protect m (fun () -> Engine.sleep 2.0)
