(** One open erase block accepting page appends for a write stream.

    A stream is a temperature/object class on the host side (hot metafile
    pages vs cold user data), or the FTL's internal GC relocation stream.
    Pages appended through the same stream land in the same erase block,
    so co-streamed pages die together — the multi-stream SSD contract. *)

type t

val make : int -> t

val block : t -> int
(** Currently open erase block, [-1] when none. *)

val has_block : t -> bool
val open_block : t -> block:int -> unit
val close : t -> unit

val append : t -> int
(** Take the next page offset within the open block and advance. *)

val full : t -> pages_per_block:int -> bool

val appended : t -> int
(** Lifetime pages appended through this stream. *)
