external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

(* Fibonacci hashing: the table indexes by the low bits of the hash, so
   take them from the middle of the product, where every key bit mixes
   in (a stride of a power of two would share the key's low bits). *)
module H = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = (k * 0x9E3779B97F4A7C1) lsr 16
end)

(* [present] has bit k set exactly when key k is bound. *)
type 'a t = { tbl : 'a H.t; mutable present : Bytes.t (* 8 bytes per 64 keys *) }

let create () = { tbl = H.create 16; present = Bytes.empty }
let length t = H.length t.tbl

let mark_present t k =
  let off = 8 * (k lsr 6) in
  if off >= Bytes.length t.present then begin
    let present = Bytes.make (max (off + 8) (2 * Bytes.length t.present)) '\000' in
    Bytes.blit t.present 0 present 0 (Bytes.length t.present);
    t.present <- present
  end;
  set64 t.present off (Int64.logor (get64 t.present off) (Int64.shift_left 1L (k land 63)))

let replace t k v =
  if k < 0 then invalid_arg "Int_table.replace: negative key";
  H.replace t.tbl k v;
  mark_present t k

(* Most lookups are for keys never bound (a read of a clean block): the
   bitmap answers those without hashing. *)
let present t k =
  let off = 8 * (k lsr 6) in
  k >= 0
  && off < Bytes.length t.present
  && Int64.logand (get64 t.present off) (Int64.shift_left 1L (k land 63)) <> 0L

let mem t k = present t k
let find_opt t k = if present t k then Some (H.find t.tbl k) else None

(* Walk [present] from the highest word down, consing each word's keys
   onto the result lowest last. *)
let bindings t =
  let acc = ref [] in
  for w = (Bytes.length t.present / 8) - 1 downto 0 do
    let x = ref (get64 t.present (8 * w)) in
    let keys = ref [] in
    while !x <> 0L do
      keys := ((64 * w) + Bitops.ctz !x) :: !keys;
      x := Int64.logand !x (Int64.sub !x 1L)
    done;
    List.iter (fun k -> acc := (k, H.find t.tbl k) :: !acc) !keys
  done;
  !acc

let clear t =
  H.clear t.tbl;
  Bytes.fill t.present 0 (Bytes.length t.present) '\000'
