(** Content-addressed page deduplication.

    Maps page-content hashes to the block already holding that
    content. This is what lets the object store "deduplicate otherwise
    unrelated checkpoints on disk for higher storage density" (§2) and
    represent each serverless function as "a small delta over the
    runtime container's checkpoint" (§4): the second and later images
    of identical pages cost one reference count, not one block.

    The index is an open-addressed {!Table} from hash to block, beside
    a reverse map from block to hash kept as 8 bytes a block. Neither
    holds a heap block per entry, and a lookup allocates nothing.
    Batched callers keep their hashes in a byte column, 8 bytes a hash,
    and the [_in] functions read each one there in place: an [int64]
    passed to a function of another module is boxed. Entries are
    dropped automatically when their block is freed (the index
    registers an [Alloc] free hook, which probes with the block's own
    slot of the reverse map). *)

(** An open-addressed map from 64-bit content hashes to non-negative
    ints, with no heap block per entry: each slot holds a hash and its
    value side by side, unboxed, in one byte array. Linear probing from
    a hash's home slot, which is its low bits; deletion shifts the rest
    of the probe run back, so it leaves no tombstones. The slot count
    is a power of two, and at least twice the entry count. *)
module Table : sig
  type t

  val create : int -> t
  (** A table with room for this many entries before it first grows. *)

  val add_in : t -> Bytes.t -> int -> int -> int
  (** [add_in t hashes i v]: the value the hash in bytes [8i, 8i + 8)
      of [hashes] maps to, after mapping it to [v] if it mapped to
      nothing, growing the table as needed. One probe does both. Raises
      [Invalid_argument] on a negative value. *)
end

type t

val create : alloc:Alloc.t -> t

val find : t -> hash:int64 -> int
(** Block already holding content with this hash, or -1. *)

val find_in : t -> Bytes.t -> int -> int
(** [find_in t hashes i]: {!find} of the hash in bytes [8i, 8i + 8) of
    [hashes], read in place. *)

val peek : t -> hash:int64 -> int
(** Like {!find} but without touching the hit/miss counters. Read
    repair uses this to locate a surviving duplicate of a corrupted
    block without skewing the dedup statistics. *)

val add : t -> hash:int64 -> block:int -> unit
(** Record that [block] holds content hashing to [hash]. Raises
    [Invalid_argument] if the hash is already mapped to a different
    block. *)

val add_in : t -> Bytes.t -> int -> block:int -> unit
(** [add_in t hashes i ~block]: {!add} of the hash in bytes
    [8i, 8i + 8) of [hashes], with one probe of the index: a refused
    hash leaves the index and the reverse map untouched. *)

val entries : t -> int
val hits : t -> int
val misses : t -> int
(** Running counters maintained by {!find}. *)

val bytes_saved : t -> int
(** Total payload bytes whose write was avoided because a duplicate
    block already existed. The index cannot see payload sizes, so the
    store reports each avoided write via {!note_saved}. *)

val note_saved : t -> bytes:int -> unit
(** Credit [bytes] of avoided writes to the savings counter (called by
    the store on every dedup hit, including intra-batch duplicates).
    Raises [Invalid_argument] on a negative size. *)

val reset : t -> unit
(** Drop every entry (before a recovery walk repopulates the index).
    Counters are kept. *)
