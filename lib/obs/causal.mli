(** Causal request tracing and critical-path analysis (DESIGN.md §4.10).

    The propagation half is the {e only} sanctioned way for code outside
    [Wafl_obs] to emit causal edges ([wafl_lint] rejects the underlying
    [Trace] primitives elsewhere): {!capture} a context where
    asynchronous work is produced, carry the {!handoff} with the work,
    {!restore} it where the work is consumed.  Every call is a single
    branch unless the tracer was created with [Trace.create ~causal:true]
    (the [--causal] experiment flag), and recording never consumes
    virtual time, schedules events or draws randomness, so causal runs
    are bit-identical to untraced ones.

    The analyzer half powers [wafl_sim analyze]: it pairs flow events
    into edges, extracts each checkpoint's critical path by walking those
    edges backward, attributes critical-path time to resource classes
    (serial allocator, cleaner pool, Waffinity partition classes, RAID),
    and decomposes end-to-end write latency per stage. *)

(** {1 Context propagation} *)

type handoff = Trace.handoff

val no_handoff : handoff
val capture : Trace.t -> kind:string -> handoff
val restore : Trace.t -> kind:string -> handoff -> unit
val with_root : Trace.t -> (unit -> 'a) -> 'a
val fiber_reset : Trace.t -> unit

val enabled : Trace.t -> bool
(** True iff the tracer records causal edges ([Trace.causal]). *)

(** {1 Trace analysis} *)

type span = {
  sp_tid : int;
  sp_ts : float;
  sp_dur : float;
  sp_cat : string;
  sp_name : string;
  sp_ctx : int;
  sp_wait : float;
}

type edge = {
  ed_id : int;
  ed_name : string;
  ed_src_tid : int;
  ed_src_ts : float;
  ed_dst_tid : int;
  ed_dst_ts : float;
}

type segment = { sg_class : string; sg_from : float; sg_until : float }

type cp_path = {
  p_ts : float;
  p_dur : float;
  p_tid : int;
  p_generation : float;
  p_coverage : float;  (** walked fraction of the CP interval, 0..1 *)
  p_segments : segment list;  (** chronological *)
  p_classes : (string * float) list;  (** class -> critical-path us, descending *)
}

type op_stat = {
  o_name : string;
  o_count : int;
  o_mean : float;
  o_p50 : float;
  o_p99 : float;
}

type stage_stat = {
  st_name : string;
  st_count : int;
  st_service_p50 : float;
  st_service_p99 : float;
  st_wait_p50 : float;
  st_wait_p99 : float;
}

type analysis = {
  a_events : int;
  a_dropped : int;
  a_causal : bool;
  a_spans : int;
  a_edges : int;
  a_unmatched_starts : int;
  a_orphan_finishes : int;
  a_acyclic : bool;
  a_cps : cp_path list;
  a_bottlenecks : (string * float) list;
  a_ops : op_stat list;
  a_stages : stage_stat list;
}

val analyze_string : string -> (analysis, string) result
(** Parse and analyze a Chrome trace, as {!Trace.export_string} writes
    it. *)

val dominant : cp_path -> string * float
(** The class holding the largest critical-path share of one CP.  Only
    {!render} calls it today; it stays exported as the offline answer an
    online per-CP bottleneck attribution must agree with (ROADMAP.md,
    open item 4). *)

val render : analysis -> string
(** Human-readable report: completeness, per-CP critical paths, the
    bottleneck table, and the write-path latency decomposition. *)

val to_json : analysis -> Json.t
