(** Reference-counted block allocation for the object store.

    Blocks are shared aggressively — by COW B+tree snapshots (a tree
    node referenced from many generation roots) and by page
    deduplication (one content block referenced from many images) — so
    the allocator tracks a reference count per block and frees in
    place when it reaches zero. This is what makes the paper's
    "in-place garbage collection without needing to rewrite incremental
    checkpoints" work: releasing a generation decrements counts down
    the shared structure and only uniquely-owned blocks return to the
    free list.

    State is kept in memory and reconstructed at recovery by walking
    the generation roots (see [Store.open_]). *)

type t

exception Out_of_space
(** Raised by {!alloc} / {!alloc_extent} when a capacity is set and
    exhausted. Typed so a full device degrades the checkpoint (the
    store aborts the open generation and keeps serving) instead of
    killing the simulation. *)

val create : first_block:int -> ?capacity_blocks:int -> ?stripes:int -> unit -> t
(** Blocks below [first_block] are reserved (superblocks). [stripes]
    (default 1) is the backing device array's stripe count; extents
    are aligned to it. A block's refcount is 4 bytes in one column, so
    it holds at most 2^30 references: {!incref} or {!mark_live} past
    that raises [Invalid_argument] instead of wrapping. *)

val alloc : t -> int
(** A free block, refcount 1. Raises {!Out_of_space} when a capacity
    is set and exhausted. *)

val alloc_extent : t -> int -> int array
(** [alloc_extent t n]: [n] fresh contiguous logical blocks, each with
    refcount 1, stripe-aligned when [n] spans a full stripe round.
    Contiguity makes the run one physical extent per device under
    round-robin striping. When a capacity is set and fresh space cannot
    hold the extent, its blocks come from {!alloc} one at a time, freed
    ones first. Raises {!Out_of_space} when that too runs out. *)

val capacity_blocks : t -> int option
(** The capacity cap given at {!create}, if any ([None] = unbounded).
    Lets inspection tools report utilisation without guessing. *)

val incref : t -> int -> unit
(** Raises [Invalid_argument] on a dead block, or on one that already
    holds 2^30 references. *)

val decref : t -> int -> unit
(** Frees at zero (block returns to the free list and the [on_free]
    hook fires). Raises [Invalid_argument] on a dead block. *)

val refcount : t -> int -> int
(** 0 for unallocated blocks, negative block numbers included. *)

val live_blocks : t -> int
val add_on_free : t -> (int -> unit) -> unit
(** Register a hook invoked when a block is freed; the B+tree evicts
    its node cache and the store drops deduplication entries. Hooks
    run in registration order. *)

val mark_live : t -> int -> unit
(** Recovery: force the block's refcount up by one (from zero if
    unallocated). Raises [Invalid_argument] past 2^30, as
    {!incref} does. *)

val set_deferred_frees : t -> bool -> unit
(** When on, blocks freed by {!decref} are parked instead of returned
    to the free list. The owner drains the pen with {!take_parked} and
    gives blocks back with {!release} once it is safe to reuse them —
    the object store gates reuse on the durability of the first
    superblock written after the free, so a crash can never recover a
    state that references a since-reused block. [on_free] hooks still
    fire at free time. *)

val take_parked : t -> int list
(** Drain the deferred-free pen (empties it). *)

val release : t -> int list -> unit
(** Return previously parked blocks to the free list. *)

val bump_fresh : t -> int -> unit
(** Push [next_fresh] past [block] without allocating it. After a
    mid-run recovery rebuild, blocks still gated by an in-flight
    superblock are quarantined this way: they leak (a hole the fresh
    pointer skips) rather than risk reuse while an older superblock
    that references them could still win recovery. *)

val set_pressure_hook : t -> (unit -> bool) -> unit
(** Invoked when an allocation would raise {!Out_of_space}; return
    [true] to retry the allocation (e.g. after settling deferred frees
    by advancing the clock). Must make progress monotonically: a hook
    that keeps returning [true] without growing the free list will
    loop. *)

val reset : t -> unit
(** Drop all state (before a recovery walk repopulates it). *)
