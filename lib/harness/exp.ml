open Wafl_workload

(* An unset or empty variable takes the default; anything else must
   parse, so a typo cannot silently run a different suite. *)
let env_var name parse ~expected ~default =
  match Sys.getenv_opt name with
  | None | Some "" -> default ()
  | Some s -> (
      match parse (String.trim s) with
      | Some v -> v
      | None -> invalid_arg (Printf.sprintf "%s=%S: expected %s" name s expected))

let of_env () =
  env_var "WAFL_SCALE" ~expected:"a positive number"
    (fun s ->
      match float_of_string_opt s with
      | Some f when f > 0.0 && Float.is_finite f -> Some f
      | _ -> None)
    ~default:(fun () -> 1.0)

type record = { result : Driver.result; wall_s : float }

type ctx = {
  scale : float;
  domains : int;
  sanitize : bool;
  telemetry : Driver.telemetry option;
  obs : Wafl_sim.Engine.t -> Wafl_obs.Trace.t;
  clock : unit -> float;
  lock : Mutex.t;
  (* Every spec run under this context, keyed by the spec with the
     context's settings applied; shared by every [scope] of it. *)
  runs : (Driver.spec * record) list ref;
  (* The specs requested through this scope, for [charged]. *)
  asked : (Driver.spec * record) list ref;
}

let context ?(domains = 1) ?(sanitize = false) ?telemetry ?obs ?(clock = fun () -> 0.0)
    ~scale () =
  {
    scale;
    domains = max 1 domains;
    sanitize;
    telemetry;
    obs = Option.value obs ~default:Driver.default_spec.Driver.obs;
    clock;
    lock = Mutex.create ();
    runs = ref [];
    asked = ref [];
  }

let scale ctx = ctx.scale
let scope ctx = { ctx with asked = ref [] }

(* Specs are compared with [compare], never [=]: within one context every
   spec carries the same [obs] closure, which [compare] accepts because
   it is physically equal. *)
let find spec l = List.find_map (fun (s, r) -> if compare s spec = 0 then Some r else None) l

(* Runs outside the lock; a spec two rows race on runs twice and the
   first record stays, which is safe because runs are deterministic. *)
let run ctx spec =
  let spec =
    { spec with Driver.sanitize = ctx.sanitize; telemetry = ctx.telemetry; obs = ctx.obs }
  in
  Mutex.lock ctx.lock;
  let cached = find spec !(ctx.runs) in
  Mutex.unlock ctx.lock;
  let fresh =
    match cached with
    | Some r -> r
    | None ->
        let t0 = ctx.clock () in
        let result = Driver.run spec in
        { result; wall_s = ctx.clock () -. t0 }
  in
  Mutex.lock ctx.lock;
  let r =
    match find spec !(ctx.runs) with
    | Some r -> r
    | None ->
        ctx.runs := (spec, fresh) :: !(ctx.runs);
        fresh
  in
  if Option.is_none (find spec !(ctx.asked)) then ctx.asked := (spec, r) :: !(ctx.asked);
  Mutex.unlock ctx.lock;
  r.result

(* Sorted by virtual time so sums over the list do not depend on the
   order in which worker domains finished. *)
let by_virtual l =
  List.sort
    (fun a b -> compare a.result.Driver.virtual_us b.result.Driver.virtual_us)
    (List.map snd l)

let executed ctx = by_virtual !(ctx.runs)
let charged ctx = by_virtual !(ctx.asked)

(* Experiment rows are independent seeded runs, so they execute
   concurrently and merge in input order — byte-identical to a serial
   sweep (tested in test_domains.ml). *)
let par_map ctx f xs = Wafl_util.Pool.map ~domains:ctx.domains f xs

let spec_base ~scale =
  let d = Driver.default_spec in
  {
    d with
    Driver.warmup = Float.max 100_000.0 (d.Driver.warmup *. scale);
    measure = Float.max 200_000.0 (d.Driver.measure *. scale);
    workload =
      Driver.Seq_write { file_blocks = max 2048 (int_of_float (16384.0 *. scale)) };
  }

let wa_config ?(cleaners = 4) ?max_cleaners ?(parallel_infra = true) ?(dynamic = false)
    ?(batching = true) () =
  let max_cleaners = match max_cleaners with Some m -> m | None -> max cleaners 8 in
  {
    Wafl_core.Walloc.default_config with
    Wafl_core.Walloc.cleaner_threads = cleaners;
    max_cleaner_threads = max_cleaners;
    parallel_infra;
    dynamic_cleaners = dynamic;
    batching;
    cp_timer = Some 250_000.0;
  }

let gain_pct ~baseline v = if baseline <= 0.0 then 0.0 else (v /. baseline -. 1.0) *. 100.0
let shape name ok = (name, ok)

let print_shapes shapes =
  print_newline ();
  List.iter
    (fun (name, ok) -> Printf.printf "  shape %-58s %s\n" name (if ok then "[ok]" else "[MISS]"))
    shapes;
  flush stdout
