(** Bounded ring-buffer trace sink.

    When full, the oldest events are overwritten and counted; the
    exporter reports the drop count so a truncated trace is never
    mistaken for a complete one.  [record] is the single mutation point
    of the tracing subsystem — code outside [Wafl_obs] must emit through
    the {!Trace} API (enforced by [wafl_lint]). *)

type ev = {
  ph : char;
      (** 'X' complete span, 'i' instant, 'C' counter sample, 's'/'f'
          flow start/finish (causal edge) *)
  cat : string;
  name : string;
  ts : float;  (** virtual microseconds *)
  dur : float;  (** 'X': span duration; 'C': sampled value *)
  tid : int;  (** fiber id; -1 outside fiber context *)
  flow : int;  (** 's'/'f': edge id pairing the two halves; 0 = none *)
  args : (string * string) list;
  num_args : (string * float) list;
}

type t

val create : capacity:int -> t
val record : t -> ev -> unit
val capacity : t -> int
val length : t -> int
val dropped : t -> int

val iter : t -> (ev -> unit) -> unit
(** Visit retained events oldest to newest. *)
