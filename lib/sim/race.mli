(** Happens-before race detector (vector clocks over engine fibers).

    The engine (when created with [~sanitize:true]) maintains one
    detector instance and drives it from every scheduling edge it
    produces: fiber spawn, finish/join, park/wake.  {!Sync} adds
    release/acquire edges for channels.
    Instrumented code then declares its touches of shared mutable state
    with {!access} probes (via [Engine.probe]); any two accesses to the
    same shared id that are not ordered by the recorded happens-before
    relation — and of which at least one is a write — are reported with
    both fibers' labels and virtual timestamps.

    The detector is epoch-based: per shared id it keeps the last write
    and the last read of each fiber slot, so memory is bounded by the
    number of probed ids times the maximum number of concurrently live
    fibers.  Fiber slots are recycled when fibers finish; a recycled
    slot continues its predecessor's scalar clock, which keeps the
    detector free of false positives at the cost of possibly missing a
    race against a fiber that has already finished (see DESIGN.md
    §4.7). *)

type mode = Read | Write

type report = {
  shared : string;  (** id passed to {!access} *)
  first_mode : mode;
  first_label : string;
  first_fid : int;
  first_time : float;
  second_mode : mode;
  second_label : string;
  second_fid : int;
  second_time : float;
}

type t

val create : unit -> t
(** A fresh detector.  The non-fiber (host) context is pre-registered as
    fiber {!main_fid}. *)

val main_fid : int
(** Pseudo fiber id (-1) for code running outside any engine fiber. *)

(** {1 Happens-before edges (engine and Sync internals)} *)

val add_fiber : t -> parent:int -> fid:int -> unit
(** Register a spawned fiber; it inherits the spawner's clock (the
    spawn is a release edge from parent to child). *)

val finish_fiber : t -> fid:int -> unit
(** Retire a fiber: its final clock is kept for later {!edge} calls from
    it (joins on finished fibers) and its slot becomes reusable.  Only
    the most recent few thousand final clocks are kept individually;
    older ones are folded into a single conservative clock, so memory
    stays bounded over runs that finish millions of fibers. *)

val edge : t -> from_:int -> to_:int -> unit
(** Release/acquire edge between two fibers: everything [from_] has done
    happens before everything [to_] does next.  [from_] may already be
    finished (if its final clock was pruned, the edge conservatively
    carries the join of all pruned clocks — this can hide a race, never
    invent one); [to_] must be live. *)

val new_sync : t -> int
(** A fresh synchronization object (its own vector clock). *)

val sync_id : t -> string -> int
(** The sync object registered under [name], created on first use. *)

val acquire : t -> fid:int -> sync:int -> unit
(** The fiber inherits everything released into the sync object. *)

val release : t -> fid:int -> sync:int -> unit
(** The fiber publishes its history into the sync object. *)

(** {1 Probes and reports} *)

val access : t -> fid:int -> label:string -> now:float -> shared:string -> mode -> unit
(** Declare that [fid] touched the shared mutable state [shared].
    Reports a race when the access is concurrent (per the recorded
    happens-before relation) with a previous access to the same id and
    at least one of the two is a [Write]. *)

val reports : t -> report list
(** Reports in detection order; storage is capped (the count keeps
    growing past the cap, see {!n_reports}). *)

val n_reports : t -> int
(** Total number of races detected, including any beyond the cap. *)

val absorb_all : t -> unit
(** Join every live fiber's and sync object's clock into {!main_fid}'s.
    The engine calls this when [run] returns: the host context then
    observes results of everything that ran, which is sound because the
    simulation is cooperative and single-threaded. *)
