(** Minimal deterministic JSON: emitter for trace export and the benchmark
    harness, parser for loading traces back in tests.  Byte-stable output:
    the same value always prints the same string (see {!num_str}). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val num_str : float -> string
(** Canonical float image: integral values print with no fractional part,
    everything else with three decimals. *)

val str_into : Buffer.t -> string -> unit
(** Append a quoted, escaped JSON string. *)

val to_string : t -> string

val of_string : string -> (t, string) result
(** Parse a complete JSON document; [Error] carries a position message. *)

(** {1 Accessors} *)

val member : string -> t -> t option
val to_list : t -> t list option
val to_float : t -> float option
val to_str : t -> string option
