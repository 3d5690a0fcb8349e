type t =
  | Serial
  | Aggregate of int
  | Aggregate_vbn of int
  | Agg_range of int * int
  | Volume of int * int
  | Volume_logical of int * int
  | Stripe of int * int * int
  | Volume_vbn of int * int
  | Vol_range of int * int * int

let parent = function
  | Serial -> None
  | Aggregate _ -> Some Serial
  | Aggregate_vbn a -> Some (Aggregate a)
  | Agg_range (a, _) -> Some (Aggregate_vbn a)
  | Volume (a, _) -> Some (Aggregate a)
  | Volume_logical (a, v) -> Some (Volume (a, v))
  | Stripe (a, v, _) -> Some (Volume_logical (a, v))
  | Volume_vbn (a, v) -> Some (Volume (a, v))
  | Vol_range (a, v, _) -> Some (Volume_vbn (a, v))

let equal x y =
  match (x, y) with
  | Serial, Serial -> true
  | Aggregate a, Aggregate b | Aggregate_vbn a, Aggregate_vbn b -> a = b
  | Agg_range (a, r), Agg_range (b, q)
  | Volume (a, r), Volume (b, q)
  | Volume_logical (a, r), Volume_logical (b, q)
  | Volume_vbn (a, r), Volume_vbn (b, q) ->
      a = b && r = q
  | Stripe (a, v, r), Stripe (b, w, q) | Vol_range (a, v, r), Vol_range (b, w, q) ->
      a = b && v = w && r = q
  | ( ( Serial | Aggregate _ | Aggregate_vbn _ | Agg_range _ | Volume _ | Volume_logical _
      | Stripe _ | Volume_vbn _ | Vol_range _ ),
      _ ) ->
      false

let hash t =
  let mix h x = (h * 1_000_003) + x in
  match t with
  | Serial -> 0
  | Aggregate a -> mix 1 a
  | Aggregate_vbn a -> mix 2 a
  | Agg_range (a, r) -> mix (mix 3 a) r
  | Volume (a, v) -> mix (mix 4 a) v
  | Volume_logical (a, v) -> mix (mix 5 a) v
  | Stripe (a, v, s) -> mix (mix (mix 6 a) v) s
  | Volume_vbn (a, v) -> mix (mix 7 a) v
  | Vol_range (a, v, r) -> mix (mix (mix 8 a) v) r

let ancestors t =
  let rec go acc t = match parent t with None -> List.rev acc | Some p -> go (p :: acc) p in
  go [] t

let conflicts x y = x = y || List.mem x (ancestors y) || List.mem y (ancestors x)

let kind_name = function
  | Serial -> "serial"
  | Aggregate _ -> "aggregate"
  | Aggregate_vbn _ -> "aggregate_vbn"
  | Agg_range _ -> "agg_range"
  | Volume _ -> "volume"
  | Volume_logical _ -> "volume_logical"
  | Stripe _ -> "stripe"
  | Volume_vbn _ -> "volume_vbn"
  | Vol_range _ -> "vol_range"

let pp ppf t =
  match t with
  | Serial -> Format.pp_print_string ppf "serial"
  | Aggregate a -> Format.fprintf ppf "aggregate(%d)" a
  | Aggregate_vbn a -> Format.fprintf ppf "aggregate_vbn(%d)" a
  | Agg_range (a, r) -> Format.fprintf ppf "agg_range(%d,%d)" a r
  | Volume (a, v) -> Format.fprintf ppf "volume(%d,%d)" a v
  | Volume_logical (a, v) -> Format.fprintf ppf "volume_logical(%d,%d)" a v
  | Stripe (a, v, s) -> Format.fprintf ppf "stripe(%d,%d,%d)" a v s
  | Volume_vbn (a, v) -> Format.fprintf ppf "volume_vbn(%d,%d)" a v
  | Vol_range (a, v, r) -> Format.fprintf ppf "vol_range(%d,%d,%d)" a v r
