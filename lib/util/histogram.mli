(** Log-bucketed histogram for latency distributions.

    Values are assigned to geometrically spaced buckets, which gives
    accurate percentiles over many orders of magnitude (microseconds to
    seconds) with a small fixed memory footprint.  Quantiles are
    interpolated within a bucket. *)

type t

val create : ?lo:float -> ?hi:float -> ?buckets_per_decade:int -> unit -> t
(** Defaults cover [1e0, 1e8] (virtual microseconds) with 20 buckets per
    decade, i.e. ~2.8% relative resolution. Out-of-range values clamp to
    the first / last bucket. *)

val add : t -> float -> unit
val count : t -> int
val mean : t -> float

val quantile : t -> float -> float
(** [quantile t q] with [q] in [\[0, 1\]]. Returns 0.0 when empty. *)

val percentile : t -> float -> float
(** [percentile t 99.0] = [quantile t 0.99]. *)

val merge_into : dst:t -> t -> unit
(** Adds all of the source's buckets into [dst]; the histograms must have
    been created with identical parameters. *)

val merge : t -> t -> t
(** Fresh histogram holding the bucket-wise sum of both arguments
    (neither is mutated).  Bucket-exact: [merge a b] has the same buckets
    as a single histogram fed both sample streams. *)

val copy : t -> t

val delta : baseline:t -> t -> t
(** [delta ~baseline cur] is the fresh histogram of samples recorded in
    [cur] since the [baseline] snapshot was taken (bucket-wise
    subtraction; both must share [cur]'s parameters and [baseline] must
    be an earlier snapshot of the same stream).  [max_seen] carries the
    cumulative maximum — an upper bound for the window. *)

(** {1 Structure accessors (for bounded-memory rollups and JSON export)} *)

val lo : t -> float
val buckets_per_decade : t -> int
val sum : t -> float
val max_seen : t -> float

val counts : t -> int array
(** Copy of the raw bucket counts. *)

val approx_bytes : t -> int
(** Approximate heap footprint in bytes (record + bucket array). *)

val of_counts :
  lo:float -> buckets_per_decade:int -> counts:int array -> sum:float -> max_seen:float -> t
(** Rebuild a histogram from exported raw state ([n] is the sum of
    [counts]; the array is copied). *)
