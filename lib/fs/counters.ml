type t = (string, int ref) Hashtbl.t
type token = (string, int ref) Hashtbl.t

let create () : t = Hashtbl.create 16
let token (_ : t) : token = Hashtbl.create 8

let cell tbl name =
  match Hashtbl.find_opt tbl name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add tbl name r;
      r

let read t name = match Hashtbl.find_opt t name with Some r -> !r | None -> 0
let set t name v = cell t name := v
let add t name d = cell t name := !(cell t name) + d
let stage tok name d = cell tok name := !(cell tok name) + d
let staged tok name = read tok name

let token_cell = cell

let flush t tok =
  let updated = ref 0 in
  (* Integer addition commutes, so the visit order cannot leak. *)
  (* Cells persist across flushes (holders cache them); zero them instead
     of dropping them.  The update count — which feeds a per-update CPU
     charge — counts cells with a nonzero staged delta, which matches the
     old table-length count because a cell only exists while staged. *)
  Hashtbl.iter (* lint-ok: commutative *)
    (fun name r ->
      if !r <> 0 then begin
        incr updated;
        add t name !r;
        r := 0
      end)
    tok;
  !updated

let exact t toks name =
  read t name + List.fold_left (fun acc tok -> acc + staged tok name) 0 toks
