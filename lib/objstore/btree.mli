(** Copy-on-write B+tree over a (striped) block device array.

    This is the object store's index structure and the source of its
    two headline properties (§3): checkpoints at hundreds per second
    with a "lower overhead COW layout than that of WAFL and ZFS", and
    in-place garbage collection.

    - Every insert into a committed tree path-copies from the root
      down, so an old root keeps describing the old tree forever: a
      checkpoint generation {e is} a root pointer. Unchanged subtrees
      are shared between generations through block reference counts.
    - Within the current (uncommitted) epoch, nodes created by this
      epoch are mutated in place — path copying happens once per
      node per generation, not once per insert, which is what makes
      10 ms checkpoint intervals affordable.
    - Releasing a root decrements shared structure and frees only
      uniquely-owned blocks: GC without rewriting surviving
      checkpoints.

    Nodes live in a write-back cache; device writes happen at
    {!flush_dirty} (asynchronously, on the device timeline) and device
    reads happen only on cache misses — i.e. at recovery and cold
    restore, where they are charged to the simulated clock. Values are
    either immediates or reference-counted block pointers; the tree
    owns one reference per pointer value stored in it.

    A cached leaf is its block image (a 9-byte header and 17-byte
    entries) and an internal node its separators as bytes beside an
    array of children, so no cached node holds a heap block per entry,
    and {!insert} allocates nothing beyond the copies below. A leaf's
    image is private to the cache only while its node is dirty:
    {!flush_dirty} hands the device the exact image itself, and a
    decoded leaf keeps the device's bytes, so encode and decode copy
    nothing. An epoch's first insert into a committed leaf copies it:
    at its exact size when the insert replaces a key, at capacity when
    it adds one. The leaf is copied again that epoch only when it gains
    a key after a replace, or when it was flushed since. Once the device
    holds a leaf's bytes, nothing writes them again. *)

open Aurora_simtime
open Aurora_device

type value = Imm of int64 | Ptr of int

type t

val create : dev:Devarray.t -> alloc:Alloc.t -> t
val empty_root : t -> int
(** A fresh empty leaf, owned by the caller (refcount 1). *)

val set_reader : t -> (int -> Blockdev.content) -> unit
(** Route cache-miss block reads through [f] instead of the raw
    device. The store installs its checksum-verifying, self-repairing
    read here so tree nodes get the same media-fault protection as
    data blocks. *)

val begin_epoch : t -> int -> unit
(** Start generation [n]: nodes from earlier epochs become immutable
    (inserts will path-copy them). *)

val insert : t -> root:int -> key:int64 -> value -> int
(** Returns the (possibly new) root. Reference contract: the call
    consumes the caller's reference on [root] and the returned root
    carries it instead — a generation root that must outlive the
    insert needs {!retain_root} first. If the key exists its value is
    replaced, and a replaced [Ptr] loses the tree's reference. *)

val find : t -> root:int -> int64 -> value option
(** Builds the value it returns: a warm lookup allocates its [Some] and
    the value, plus the [int64] box of an [Imm], and nothing else. *)

val fold_range :
  t -> root:int -> lo:int64 -> hi:int64 -> init:'a -> f:('a -> int64 -> value -> 'a) -> 'a
(** In key order over keys in [lo, hi] (inclusive). Builds each key and
    value it passes, as {!find} does. *)

val fold_ptrs :
  t -> root:int -> lo:int64 -> hi:int64 -> init:'a -> f:('a -> int -> int -> 'a) -> 'a
(** {!fold_range} over the [Ptr] entries only, reading them off the
    leaves without boxing: [f acc k block] gets the key's low 63 bits
    ([Int64.to_int]) and the block. *)

val diff :
  t -> root:int -> base:int -> lo:int64 -> hi:int64 -> init:'a ->
  f:('a -> int -> int -> bool -> 'a) -> 'a
(** {!fold_ptrs} over the [Ptr] entries of [root] whose block the tree
    at [base] does not hold at the same key; [f]'s last argument says
    whether [base] holds the key at all. The two trees are walked
    together, and a subtree whose block both reach is skipped unread: a
    committed node never changes, so a shared block is a shared
    subtree. *)

val release_root : t -> int -> unit
(** Drop one reference on the root, cascading frees through uniquely
    owned nodes and decrementing value-block references. *)

val retain_root : t -> int -> unit
(** Take an extra reference on a root (e.g. when a new generation
    starts from the previous generation's tree). *)

val flush_dirty :
  ?tee:(int array -> Blockdev.content array -> int array * Blockdev.content array) ->
  ?cls:Iosched.cls -> t -> Duration.t
(** Queue all dirty cached nodes to the device (asynchronously), as one
    column of blocks in ascending order beside a column of node images;
    returns the absolute completion time ({!Aurora_simtime.Duration}),
    or the current time when nothing was dirty. [tee] observes the two
    columns and returns extra columns to append to the same submission
    — the store uses it to record node checksums and emit mirror copies
    in the same flush. *)

val dirty_count : t -> int
val cached_count : t -> int
val drop_cache : t -> unit
(** Evict all clean cached nodes (cold-cache benchmarks). Raises
    [Invalid_argument] if dirty nodes remain. *)

val reset_cache : t -> unit
(** Evict everything, dirty or not. Recovery uses this after a crash
    or an aborted generation: cached nodes may describe state the
    device never saw. *)

(** Structural access for recovery walks. *)
type view = Leaf_view of (int64 * value) list | Internal_view of int list

val view : t -> int -> view
(** Decodes the node at a block (cache miss reads the device). *)

val node_depth : t -> root:int -> int
