(** Affinity-isolation checker (paper §III): Hierarchical Waffinity's
    central claim is that affinity rules {e replace} fine-grained locks —
    a message may touch partition-private data only if its affinity
    conflicts with (equals, or is an ancestor/descendant of) the
    affinity that owns that data, because only then does the scheduler
    guarantee mutual exclusion.

    This module materializes that permission map.  Data domains are the
    shared-state ids used by [Engine.probe] (e.g. a metafile map block);
    each is registered with its owning affinity.  The scheduler records
    which affinity every message fiber runs under; the engine's access
    hook then calls {!check} on every probe, and a touch of a domain
    whose owner does not conflict with the running affinity aborts the
    run with a {!Violation} diagnostic.

    Probes from outside message context (setup code, the CP engine's own
    fibers, cleaner threads) are not constrained — only code that claims
    to run under an affinity is held to the affinity rules. *)

exception Violation of string

type t

val create : unit -> t

val register_owner : t -> shared:string -> Affinity.t -> unit
(** Declare that the data domain [shared] is private to [affinity]'s
    partition.  Re-registering replaces the owner. *)

val enter : t -> fid:int -> affinity:Affinity.t -> label:string -> unit
(** Record that fiber [fid] is executing a message under [affinity];
    called by the scheduler when the message fiber starts. *)

val exit : t -> fid:int -> unit
(** The message finished (or raised); the fiber is unconstrained again. *)

val check : t -> fid:int -> shared:string -> unit
(** Raise {!Violation} if [fid] is running a message whose affinity does
    not conflict with the registered owner of [shared].  No-op for
    unregistered domains and non-message fibers. *)
