type config = { rate_per_s : float; burst : float; queue_depth : int }

let default_config = { rate_per_s = 50_000.0; burst = 64.0; queue_depth = 256 }

type t = {
  cfg : config;
  eng : Wafl_sim.Engine.t option; (* sanitizer probe target; None in unit tests *)
  buckets : (int, Token_bucket.t) Hashtbl.t; (* vol id -> bucket; never iterated *)
}

let create ?eng cfg =
  if cfg.queue_depth < 0 then invalid_arg "Qos.create: negative queue depth";
  { cfg; eng; buckets = Hashtbl.create 16 }

let bucket t vol =
  match Hashtbl.find_opt t.buckets vol with
  | Some b -> b
  | None ->
      let b = Token_bucket.create ~rate_per_s:t.cfg.rate_per_s ~burst:t.cfg.burst in
      Hashtbl.add t.buckets vol b;
      b

let admit t ~vol ~now =
  (* The bucket table and each bucket's token/debt state are touched by
     every arrival fiber: in the real system an atomic per-volume
     structure, declared as such to the sanitizer. *)
  (match t.eng with
  | Some e -> Wafl_sim.Engine.probe_atomic e ~shared:"qos.buckets"
  | None -> ());
  match Token_bucket.reserve (bucket t vol) ~now ~max_debt:(float_of_int t.cfg.queue_depth) with
  | Token_bucket.Admit -> `Admit
  | Token_bucket.Delay d -> `Delay d
  | Token_bucket.Shed -> `Shed

let bucket_state t ~vol = Option.map Token_bucket.state (Hashtbl.find_opt t.buckets vol)
