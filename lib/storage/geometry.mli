(** Aggregate geometry: RAID groups, data drives, stripes and Allocation
    Areas (paper §II-B, §IV-D).

    The physical VBN space covers only data drives; parity drives are
    implicit in the RAID model.  VBNs are laid out so that each data drive
    owns one contiguous VBN range — a {e bucket} (a chunk of consecutive
    VBNs on one drive) is therefore a simple integer interval.

    A {e stripe} is the set of blocks at the same drive offset (DBN)
    across the data drives of one RAID group; an {e Allocation Area} is a
    contiguous run of [aa_stripes] stripes. *)

type t

type vbn = int
(** Physical volume block number; dense in [\[0, total_data_blocks)]. *)

type location = { rg : int; drive : int; dbn : int }
(** [drive] is the data-drive index within the RAID group; [dbn] is the
    block offset within the drive. *)

val create :
  ?drive_blocks:int -> ?aa_stripes:int -> raid_groups:(int * int) list -> unit -> t
(** [create ~raid_groups:\[(d1, p1); (d2, p2)\] ()] builds an aggregate
    with one RAID group of [d1] data and [p1] parity drives, etc.
    [drive_blocks] (default 65536) is the per-drive capacity in 4 KiB
    blocks; [aa_stripes] (default 1024) the Allocation Area depth.
    [drive_blocks] must be a multiple of [aa_stripes]. *)

val total_data_blocks : t -> int
val raid_group_count : t -> int
val data_drives : t -> rg:int -> int
val parity_drives : t -> rg:int -> int
val drives_total : t -> int
(** Data drives across all RAID groups. *)

val drive_blocks : t -> int
val aa_stripes : t -> int
val aa_count : t -> int
(** Allocation Areas per drive. *)

val vbn_of : t -> rg:int -> drive:int -> dbn:int -> vbn
val locate : t -> vbn -> location

(** {2 Non-allocating parts of {!locate}}

    For per-block hot paths; each raises [Invalid_argument] on a VBN
    outside the geometry, as {!locate} does. *)

val rg_of : t -> vbn -> int
(** [(locate t v).rg]. *)

val dbn_of : t -> vbn -> int
(** [(locate t v).dbn]. *)

val rg_offset : t -> vbn -> int
(** Position of [v] within its RAID group's VBN range:
    [drive * drive_blocks + dbn] for [locate t v]. *)

val drive_base : t -> rg:int -> drive:int -> vbn
(** First VBN of the given drive's contiguous range. *)

val vbn_valid : t -> vbn -> bool
val aa_of_dbn : t -> int -> int
(** Which Allocation Area a drive offset falls in. *)

val aa_dbn_range : t -> aa:int -> int * int
(** [(first_dbn, last_dbn)] covered by an Allocation Area, inclusive. *)

val drives_of_rg : t -> rg:int -> (int * int) list
(** [(drive, base_vbn)] for each data drive of the group. *)
