(* Fixture for [Config.shared_fields]: a record built once on the host
   and mutated by every pool worker, shaped like the harness's run
   context (the unit is named Exp so its fields match the config).  The
   unguarded write to [runs] must be flagged; the mutex-guarded write to
   [asked] must not. *)

type ctx = { lock : Mutex.t; runs : int list ref; asked : int list ref }

let record_unguarded ctx x = ctx.runs := x :: !(ctx.runs)

let record_guarded ctx x =
  Mutex.lock ctx.lock;
  ctx.asked := x :: !(ctx.asked);
  Mutex.unlock ctx.lock

let sweep ctx xs =
  Wafl_util.Pool.map ~domains:4
    (fun x ->
      record_unguarded ctx x;
      record_guarded ctx x)
    xs
