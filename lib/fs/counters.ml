type t = (string, int ref) Hashtbl.t

(* A token's cells, by name for lookups and in creation order for
   {!flush}, so the flush order is fixed by construction. *)
type token = { cells : (string, int ref) Hashtbl.t; mutable order : (string * int ref) list }

let create () : t = Hashtbl.create 16
let token (_ : t) : token = { cells = Hashtbl.create 8; order = [] }

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

let token_cell tok name =
  match Hashtbl.find_opt tok.cells name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add tok.cells name r;
      tok.order <- tok.order @ [ (name, r) ];
      r

let stage tok name d =
  let r = token_cell tok name in
  r := !r + d

let staged tok name = read tok.cells name

let flush t tok =
  let updated = ref 0 in
  (* Cells persist across flushes (holders cache them); zero them instead
     of dropping them.  The update count — which feeds a per-update CPU
     charge — counts cells with a nonzero staged delta, which matches the
     old table-length count because a cell only exists while staged. *)
  List.iter
    (fun (name, r) ->
      if !r <> 0 then begin
        incr updated;
        add t name !r;
        r := 0
      end)
    tok.order;
  !updated

let exact t toks name =
  read t name + List.fold_left (fun acc tok -> acc + staged tok name) 0 toks
