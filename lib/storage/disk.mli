(** Simulated persistent block store.

    One payload slot per physical VBN.  The store survives a simulated
    crash (the file system drops its volatile state and reloads from
    here); copy-on-write correctness therefore depends on the allocator
    never directing a write at an in-use VBN, which {!write} enforces in
    cooperation with the caller-provided overwrite check.

    Payloads are polymorphic: the file-system layer instantiates ['b]
    with its on-disk block representation.  Every slot is two unboxed
    64-bit words in a page of 4096 VBNs, a {!Wafl_util.Slab} off the
    heap, made at the first write into it and handed back when a
    {!discard} empties it, so host memory follows the pages that hold
    images, not the aggregate's size.  An image the store's
    {!codec} packs (a {e compact} image) is those two words; any other
    image is {e boxed}: the words hold its index in one dense vector of
    references.  Without a codec every image is boxed.  The write path
    carries compact images as those two words too: {!Raid}'s batches
    hold a block's key and word and store them with {!write_compact},
    so no image value is built between the cleaner and the store.

    A boxed payload is a shared reference, not a copy: one returned by
    {!read} (or {!Raid.read}) stays valid only until the consistency
    point that frees its block publishes.  The file system then
    {!discard}s the block and may refill the dropped image's buffer for
    a later write (DESIGN.md §4.2).  A compact payload is a value copy:
    each {!read} builds a fresh value equal to the one written, so
    callers compare payloads structurally, never with [==]. *)

type 'b t

type 'b codec = {
  key : 'b -> int;
  word : 'b -> int64;
  unpack : int -> int64 -> 'b;
  vacant : 'b option;
}
(** How to pack an image as two words.  [key p] is a non-negative
    identity key for a packable [p], or negative to store [p] boxed;
    [word p] is its 64-bit content; [unpack (key p) (word p)] must equal
    [p] structurally.  [vacant] is an image no user writes: the boxed
    vector's vacated entries hold it, so they keep no user image
    reachable.  Without one (and in a store without a codec) they hold
    the store's first boxed image instead. *)

val create : ?codec:'b codec -> Geometry.t -> 'b t
(** An empty store.  With [codec], images it packs are kept compact. *)

val geometry : 'b t -> Geometry.t

val set_fault : 'b t -> Fault.t -> unit
(** Attach a fault plan.  The plan travels with the disk image, so latent
    media errors and a failed drive survive a simulated crash. *)

val fault : 'b t -> Fault.t option

val codec : 'b t -> 'b codec
(** The store's codec (one that packs nothing when made without one). *)

val write : 'b t -> Geometry.vbn -> 'b -> unit
(** Store a payload.  Raises [Invalid_argument] on an out-of-range VBN.
    Writing a sector with a latent media error remaps (clears) it. *)

val write_compact : 'b t -> Geometry.vbn -> key:int -> word:int64 -> unit
(** [write t vbn p] for the compact image whose codec key is [key] and
    word is [word], without building [p]: the same slot, the same count
    and the same media-error remap.  Raises [Invalid_argument] on an
    out-of-range VBN or a negative key. *)

val discard : 'b t -> Geometry.vbn -> 'b option
(** Drop the image stored at a VBN and return it if it was boxed ([None]
    if the slot held none, or held a compact image: there is no buffer to
    hand back, so dropping one allocates nothing).  {!read} returns
    [None] until the next {!write} stores a new one.  No later read can
    return a dropped boxed image, so ownership passes to the caller.
    Not a write (leaves {!writes_total} and the fault plan alone).  The
    discard that leaves a page with no image hands the page back.
    Raises [Invalid_argument] on an out-of-range VBN.  The file system
    calls it once the consistency point that freed the block is
    published and no snapshot holds it, so the store keeps an image only
    while something can still read it. *)

val read : 'b t -> Geometry.vbn -> 'b option
(** Raw store read, bypassing the fault plan: [None] if the block was
    never written (or was discarded).  A boxed image is returned by
    reference; a compact one is unpacked into a fresh value-equal copy.
    Fault-aware callers use {!Raid.read}; outside the storage layer,
    [wafl_lint] rejects raw reads ({!read}, {!read_exn}, {!compact_key},
    {!compact_word}). *)

val compact_key : 'b t -> Geometry.vbn -> int
(** The codec key of the compact image a slot holds, or -1 if it holds
    none (absent or boxed).  A raw read, as {!read}: outside the storage
    layer, go through {!Raid.read_word}. *)

val compact_word : 'b t -> Geometry.vbn -> int64
(** The word of the compact image a slot holds; meaningless unless
    {!compact_key} is non-negative.  A raw read, as {!read}. *)

val read_exn : 'b t -> Geometry.vbn -> 'b

val writes_total : 'b t -> int
(** Number of block writes since creation (includes rewrites of freed
    blocks in later consistency points). *)

val slab_bytes : 'b t -> int
(** Bytes of slab in the pages that hold images: the store's off-heap
    footprint, which the heap's own size does not show.  Boxed images
    are the caller's values and not counted. *)
