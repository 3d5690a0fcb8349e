(* Positive fixture: AB/BA lock ordering — a classic deadlock shape the
   lock-order pass must report as a cycle. *)
let ab a b =
  Mutex.lock a;
  Mutex.lock b;
  Mutex.unlock b;
  Mutex.unlock a

let ba a b =
  Mutex.lock b;
  Mutex.lock a;
  Mutex.unlock a;
  Mutex.unlock b
