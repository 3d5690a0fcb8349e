(** Affinity identifiers for the Hierarchical Waffinity model (paper §III,
    Figure 1).

    Each affinity is an execution context with implicit data permissions;
    the scheduler guarantees that an affinity never runs concurrently
    with any of its ancestors or descendants, while unrelated affinities
    (siblings, cousins) run in parallel.  The hierarchy is:

    {v
    Serial
    └── Aggregate a
        ├── Aggregate_vbn a            (aggregate allocation metafiles)
        │   └── Agg_range (a, r)       (block ranges of those metafiles)
        └── Volume (a, v)
            ├── Volume_logical (a, v)  (client-facing file data)
            │   └── Stripe (a, v, s)   (user-file block stripes)
            └── Volume_vbn (a, v)      (volume allocation metafiles)
                └── Vol_range (a, v, r)
    v}

    Classical Waffinity (§III-B) is the degenerate use of only [Serial]
    and [Stripe]. *)

type t =
  | Serial
  | Aggregate of int
  | Aggregate_vbn of int
  | Agg_range of int * int
  | Volume of int * int  (** (aggregate, volume) *)
  | Volume_logical of int * int
  | Stripe of int * int * int
  | Volume_vbn of int * int
  | Vol_range of int * int * int

val equal : t -> t -> bool
(** Structural equality, without the polymorphic compare. *)

val hash : t -> int
(** Consistent with {!equal}; for hash tables keyed by affinity. *)

val parent : t -> t option
(** [None] only for [Serial]. *)

val ancestors : t -> t list
(** Proper ancestors, nearest first. *)

val conflicts : t -> t -> bool
(** Whether two affinities may not run concurrently: equal, or one is an
    ancestor of the other. *)

val kind_name : t -> string
(** Without instance indices, e.g. "volume_vbn"; used for statistics. *)

val pp : Format.formatter -> t -> unit
