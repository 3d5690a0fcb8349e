(** Simulated persistent block store.

    One payload slot per physical VBN.  The store survives a simulated
    crash (the file system drops its volatile state and reloads from
    here); copy-on-write correctness therefore depends on the allocator
    never directing a write at an in-use VBN, which {!write} enforces in
    cooperation with the caller-provided overwrite check.

    Payloads are polymorphic: the file-system layer instantiates ['b]
    with its on-disk block representation.  Slots are stored unboxed,
    beside a presence bitmap, so a write allocates no per-slot box.  They
    live in fixed pages of 4096 VBNs, and a page is created at the first
    write into it, so host memory follows the pages ever written, not
    the aggregate's size.

    A payload is a shared reference, not a copy: one returned by {!read}
    (or {!Raid.read}) stays valid only until the consistency point that
    frees its block publishes.  The file system then {!discard}s the
    block and may refill the dropped image's buffer for a later write
    (DESIGN.md §4.2). *)

type 'b t

val create : Geometry.t -> 'b t
val geometry : 'b t -> Geometry.t

val set_fault : 'b t -> Fault.t -> unit
(** Attach a fault plan.  The plan travels with the disk image, so latent
    media errors and a failed drive survive a simulated crash. *)

val fault : 'b t -> Fault.t option

val write : 'b t -> Geometry.vbn -> 'b -> unit
(** Store a payload.  Raises [Invalid_argument] on an out-of-range VBN.
    Writing a sector with a latent media error remaps (clears) it. *)

val discard : 'b t -> Geometry.vbn -> 'b option
(** Drop the image stored at a VBN and return it ([None] if the slot held
    none): {!read} returns [None] until the next {!write} stores a new
    one.  No later read can return the dropped image, so ownership passes
    to the caller.  Not a write (leaves {!writes_total} and the
    fault plan alone).  Raises [Invalid_argument] on an out-of-range VBN.
    The file system calls it once the consistency point that freed the
    block is published and no snapshot holds it, so the store keeps an
    image only while something can still read it. *)

val read : 'b t -> Geometry.vbn -> 'b option
(** Raw store read, bypassing the fault plan: [None] if the block was
    never written.  Fault-aware callers use {!read_checked} or
    {!Raid.read}; outside the storage layer, [wafl_lint] rejects raw
    reads ({!read}, {!read_checked}, {!read_exn}). *)

val read_checked : 'b t -> Geometry.vbn -> [ `Ok of 'b | `Absent | `Media_error ]
(** Like {!read} but surfaces latent media errors from the fault plan;
    {!Raid.read} reconstructs such blocks from the parity model. *)

val read_exn : 'b t -> Geometry.vbn -> 'b

val writes_total : 'b t -> int
(** Number of block writes since creation (includes rewrites of freed
    blocks in later consistency points). *)
