(* One open erase block accepting page appends for a write stream — a
   temperature/object class on the host side, or the FTL's internal GC
   relocation stream.  Pages appended through the same stream land in the
   same erase block, so co-streamed pages die together (the multi-stream
   SSD contract). *)

type t = {
  id : int;  (* stream index; the last index is the GC relocation stream *)
  mutable block : int;  (* open erase block, -1 when none *)
  mutable ptr : int;  (* next page offset within [block] *)
  mutable appended : int;  (* lifetime pages appended through this stream *)
}

let make id = { id; block = -1; ptr = 0; appended = 0 }
let block t = t.block
let has_block t = t.block >= 0

let open_block t ~block =
  t.block <- block;
  t.ptr <- 0

let close t = t.block <- -1

(* Append one page; the caller translates (block, offset) to a physical
   page number and handles the block filling up. *)
let append t =
  let off = t.ptr in
  t.ptr <- off + 1;
  t.appended <- t.appended + 1;
  off

let full t ~pages_per_block = t.ptr >= pages_per_block
let appended t = t.appended
