(** Content-addressed page deduplication.

    Maps page-content hashes to the block already holding that
    content. This is what lets the object store "deduplicate otherwise
    unrelated checkpoints on disk for higher storage density" (§2) and
    represent each serverless function as "a small delta over the
    runtime container's checkpoint" (§4): the second and later images
    of identical pages cost one reference count, not one block.

    Entries are dropped automatically when their block is freed (the
    index registers an [Alloc] free hook). *)

type t

val create : alloc:Alloc.t -> t

val find : t -> hash:int64 -> int option
(** Block already holding content with this hash, if any. *)

val peek : t -> hash:int64 -> int option
(** Like {!find} but without touching the hit/miss counters. Read
    repair uses this to locate a surviving duplicate of a corrupted
    block without skewing the dedup statistics. *)

val add : t -> hash:int64 -> block:int -> unit
(** Record that [block] holds content hashing to [hash]. Raises
    [Invalid_argument] if the hash is already mapped to a different
    block. *)

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
