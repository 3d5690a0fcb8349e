(* JSON output with every digit of each number.  Wafl_obs.Json.to_string
   rounds to three decimals, which is right for byte-stable traces and
   wrong for measurements; this printer writes the shortest decimal that
   reads back as the same float.  Non-finite numbers print as null. *)

module J = Wafl_obs.Json

let num_into b f =
  if not (Float.is_finite f) then Buffer.add_string b "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.bprintf b "%.0f" f
  else
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else shortest (p + 1)
    in
    Buffer.add_string b (shortest 15)

let rec to_buffer b = function
  | J.Null -> Buffer.add_string b "null"
  | J.Bool v -> Buffer.add_string b (if v then "true" else "false")
  | J.Num f -> num_into b f
  | J.Str s -> J.str_into b s
  | J.Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ", ";
          to_buffer b v)
        l;
      Buffer.add_char b ']'
  | J.Obj l ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          J.str_into b k;
          Buffer.add_string b ": ";
          to_buffer b v)
        l;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 1024 in
  to_buffer b v;
  Buffer.contents b

let int n = J.Num (float_of_int n)
