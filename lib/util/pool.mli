(** Worker-domain pool for independent simulation runs.

    The simulator is deterministic per run (a run is a pure function of
    its spec/seed), and the harnesses execute many independent runs: the
    bench suite's figure rows, the crash harness's seeds, experiment
    sweep points, and the partitioned engine's per-window advances.
    [run]/[map] execute those tasks concurrently on OCaml 5 domains and
    merge the results in {e input} order regardless of completion order,
    so a parallel sweep is byte-identical to a serial one.

    Tasks must be independent: they may not share mutable state except
    through [Atomic]/[Mutex]-protected or domain-local structures (the
    engine keeps its scheduler context in [Domain.DLS]; the analyzer's
    domain-safety pass audits the rest).  Tasks must not print — output
    belongs to the caller, after the deterministic merge.

    Nesting: a task must not call back into [run]/[map] with
    [domains > 1]; the harness fans out at exactly one level (rows or
    seeds or windows, never both). *)

val default_domains : unit -> int
(** Worker-domain count from the environment: [WAFL_DOMAINS] (a positive
    integer), else {!Domain.recommended_domain_count} (1 on a single-core
    host, so defaults never oversubscribe).  Unset or empty takes the
    default.
    @raise Invalid_argument naming the variable when the value is
    malformed. *)

val run : domains:int -> (unit -> 'a) list -> 'a list
(** [run ~domains tasks] executes every task and returns their results
    in input order.  [domains <= 1] (or a single task) executes inline
    on the calling domain — bit-for-bit the serial path.  Otherwise
    [min domains (length tasks)] domains (the caller counts as one) pull
    tasks from a shared index.  If any task raises, the first exception
    in {e input} order is re-raised after all domains join. *)

val map : domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~domains f xs = run ~domains (List.map (fun x () -> f x) xs)]. *)

(** {1 Persistent worker teams}

    [run] spawns fresh domains per call, which is right for a handful of
    long tasks (figure rows, crash seeds) but wrong for the partitioned
    engine, which fans out thousands of short virtual-time windows per
    run: domain spawn/join would dominate.  A [team] keeps its worker
    domains alive across calls and synchronizes each batch with a
    generation barrier. *)

type team

val team : domains:int -> team
(** Spawn a persistent team of [domains - 1] worker domains (the caller
    participates in every batch, so total concurrency is [domains]).
    [domains <= 1] spawns nothing and [team_run] executes inline. *)

val team_run : team -> (unit -> unit) list -> unit
(** Execute one batch with {!run} semantics: tasks are claimed from a
    shared index, the call returns only after every task finished (a
    barrier), and the first exception in input order is re-raised.
    Must only be called from the domain that created the team, one
    batch at a time. *)

val team_stop : team -> unit
(** Shut the workers down and join them.  Idempotent; the team must not
    be used afterwards. *)
