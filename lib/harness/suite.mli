(** The experiment registry: one entry per figure record of the paper
    reproduction, in suite order.  The CLI builds its experiment
    subcommands from it and the bench iterates it, so the figure list is
    written down once. *)

type shapes = (string * bool) list

type columns = (string * Wafl_obs.Json.t) list
(** Figure-specific JSON columns for BENCH_paper.json (overload's and
    flash's per-scenario tables); [[]] for the other figures. *)

type entry = {
  name : string;  (** e.g. ["fig4"], ["ablation/chunk"] *)
  title : string;
  run : Exp.ctx -> shapes * columns;
      (** run the figure under the context, print its table to stdout,
          and return its shape checks and bench columns *)
}

val entries : entry list

val commands : string list
(** CLI subcommand names in suite order: each entry's name up to its
    first ['/'], once (["ablation"] covers both ablation entries). *)

val select : string -> entry list
(** The entries a subcommand runs, in suite order. *)
