type t = { mutable flags : Bytes.t; mutable members : int array; mutable n : int }

let create () = { flags = Bytes.empty; members = [||]; n = 0 }
let mem t i = i >= 0 && i < Bytes.length t.flags && Bytes.unsafe_get t.flags i <> '\000'

let grow_flags t i =
  let flags = Bytes.make (max (i + 1) (2 * Bytes.length t.flags)) '\000' in
  Bytes.blit t.flags 0 flags 0 (Bytes.length t.flags);
  t.flags <- flags

let grow_members t =
  let members = Array.make (max 8 (2 * t.n)) 0 in
  Array.blit t.members 0 members 0 t.n;
  t.members <- members

let add t i =
  if i < 0 then invalid_arg "Dense_set.add: negative member";
  if i >= Bytes.length t.flags then grow_flags t i;
  if Bytes.unsafe_get t.flags i = '\000' then begin
    Bytes.unsafe_set t.flags i '\001';
    if t.n = Array.length t.members then grow_members t;
    Array.unsafe_set t.members t.n i;
    t.n <- t.n + 1
  end

let cardinal t = t.n

let clear t =
  for k = 0 to t.n - 1 do
    Bytes.unsafe_set t.flags (Array.unsafe_get t.members k) '\000'
  done;
  t.n <- 0

let sorted t =
  let a = Array.sub t.members 0 t.n in
  Array.sort Int.compare a;
  a

let elements t = Array.to_list (sorted t)
let elements_desc t = Array.fold_left (fun acc i -> i :: acc) [] (sorted t)
