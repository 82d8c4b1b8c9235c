(** The Aurora object store.

    Checkpoints are {e generations}: each generation is a COW B+tree
    root indexing, per object id, a metadata record (chunked into
    blocks) and a set of pages (deduplicated across all generations and
    images by content hash). An incremental checkpoint starts from the
    previous generation's tree, so unchanged objects and pages cost
    nothing new — "it thus never flushes the same page twice".

    Durability: data and tree nodes are queued to the device
    asynchronously. Data writes wait in exact-size chunks of blocks and
    contents, one per batched put (one entry per record chunk, blob or
    replica), until {!commit} joins them into one column pair for the
    device array; {!commit} finishes by writing the generation table
    and flipping between the two superblock slots, and returns the
    absolute simulated time at which the checkpoint is durable. On a
    device with a volatile write cache the commit instead issues a
    synchronous flush (this is why the paper's testbed uses Optane).
    A crash between commits recovers the last committed superblock —
    never a torn generation.

    Write ordering guarantees the superblock never points at
    unwritten blocks: each device queue is FIFO, data fans out across
    the array's stripes in parallel, and the superblock is written
    behind a commit barrier that waits on the max of the per-device
    completion times. A crash that catches only some stripes durable
    therefore also catches the superblock undurable, and recovery
    falls back to the previous generation.

    Garbage collection is in place: {!gc} releases dropped
    generations' roots; reference counts free exactly the blocks no
    surviving generation shares.

    {2 Media faults and self-healing}

    On a device array carrying a {!Aurora_device.Fault} plan the store
    defends itself (see {!protection}): every block written carries a
    content checksum in the generation table, every read verifies it,
    transient errors are retried with backoff charged to the simulated
    clock, and a block that fails verification is repaired from its
    mirrored replica or a deduplicated duplicate and rewritten in
    place. Unrepairable damage surfaces as the typed {!error} — a
    whole generation is quarantined ("lost") rather than ever served
    silently wrong. *)

open Aurora_simtime
open Aurora_device

type t
type gen = int

(** What the store does to survive media faults. [verify]: per-block
    content checksums, persisted in the generation table and checked
    on every read. [mirror]: every block (data, tree node, generation
    table) gets a replica written in the same flush, used for read
    repair. Defaults at {!format} follow the device: both on when the
    array carries fault injectors, both off otherwise (the seed
    layout). *)
type protection = { verify : bool; mirror : bool }

type repair_origin =
  | Mirror        (** healed from the mirrored replica *)
  | Dedup_copy    (** healed from a deduplicated duplicate block *)

(** The failure taxonomy surfaced by recovery, commit and reads. *)
type error =
  | No_superblock                 (** neither slot holds a valid superblock *)
  | Bad_generation_table of string
  | Out_of_space                  (** allocator exhausted the device *)
  | Unreadable_block of { block : int; cause : string }
      (** every copy of the block is gone *)
  | Device_failed of string       (** a device dropped out mid-operation *)

exception Fail of error
(** Raised by paths that keep the seed's direct signatures ({!commit},
    read accessors); the [result]-returning variants never raise it. *)

val describe_error : error -> string

val format : ?dedup:bool -> ?protection:protection -> dev:Devarray.t -> unit -> t
(** Initialize a fresh store on the device array (writes superblock 0).
    [dedup] (default true) enables content-addressed page/blob
    deduplication; disabling it exists for the ablation bench.
    [protection] defaults from the device's fault plan (see
    {!protection}). *)

val open_ : dev:Devarray.t -> (t, error) result
(** Recover from the newest valid superblock: re-reads the generation
    table (falling back to, and healing from, its mirror), walks every
    generation's tree to rebuild reference counts and the
    deduplication index, and quarantines generations with unrepairable
    blocks (reported by the next {!fsck}). Device reads are charged to
    the simulated clock (recovery is not free). *)

val open_exn : dev:Devarray.t -> t
(** {!open_}, raising {!Fail} on error. *)

val device : t -> Devarray.t
val protection : t -> protection

val read_class : t -> Iosched.cls
val set_read_class : t -> Iosched.cls -> unit
(** The I/O class charged for store reads ([Foreground] by default).
    Bulk scanners — scrub, fsck, replication export — set
    [Background] around their scans and restore the previous class
    after, so verification traffic never competes with application
    reads for the scheduler's reserved slack. *)

val set_obs : t -> Obs.t option -> unit
(** Bind (or, with [None], detach) instrumentation. Binding registers
    [store.<dev>.commits], [.records_put], [.pages_put] counters and a
    [.flush_us] histogram. Every commit then records a [store.flush]
    span from commit entry to the superblock's durability instant,
    parented to whatever span is open at the time (the checkpoint root
    during a checkpoint), and fires [store.commit]; the deferred-free
    pen fires [alloc.defer] (op park/release/settle). *)

(* --- building a generation ----------------------------------------- *)

val begin_generation : t -> ?base:gen -> unit -> gen
(** Open a new generation. With [base] (default: the newest committed
    generation, if any) the new tree starts as a snapshot of the base
    — an incremental checkpoint. Without a committed base it starts
    empty (a full checkpoint). Raises [Invalid_argument] if a
    generation is already open or [base] is unknown. *)

val put_record : t -> oid:int -> string -> unit
(** Store/replace the metadata record for an object in the open
    generation. Raises [Alloc.Out_of_space] on a full device. *)

val put_page_columns : t -> oid:int -> pindexes:int array -> seeds:Bytes.t -> unit
(** Store/replace pages, the one way they enter the store (a
    checkpoint, an import and the CRIU baseline put each object's pages
    with one call): page [pindexes.(i)] takes the seed in slot [i] of
    [seeds] ({!Aurora_vm.Content.slot_bytes} a page, as
    {!Aurora_vm.Vmobject.arm} captures them). Every function that takes
    a page or blob index raises [Invalid_argument] unless
    [0 <= index < 2^32], before it changes anything: a key holds the
    index in its low 32 bits. The pages are hashed into a byte column,
    and the dedup index and the batch's table of misses
    read each hash there in place. Deduplication applies per page
    (including within the batch); the distinct misses are allocated as
    one stripe-aware extent of contiguous logical blocks, queued as one
    chunk of blocks and contents, so the checkpoint flush issues one
    transfer per device instead of scattered per-page writes. Misses
    that repeat within the batch are found in an open-addressed table
    sized for the batch's misses and dropped with it. Raises
    [Invalid_argument] if [seeds] does not hold one slot per page
    index. *)

val put_pages : t -> oid:int -> (int * int64) array -> unit
(** {!put_page_columns} of pairs: a view for benchmark replays. *)

val put_blob : t -> oid:int -> index:int -> string -> unit
(** Store/replace a byte blob of at most one block (file-data chunks).
    Deduplicated store-wide by content hash, like pages. Raises
    [Invalid_argument] if the blob exceeds the block size. *)

val commit : t -> ?name:string -> ?cls:Iosched.cls -> unit -> gen * Duration.t
(** Close the open generation; returns it with its durability time
    (see above). Does not advance the clock past CPU serialization
    cost — flushing proceeds on the device timeline. [cls] is the I/O
    class charged for the epoch's data and tree-node extents (default
    [Flush]; the checkpoint pipeline promotes to [Deadline] when a
    caller is already waiting on the epoch). The generation table and
    superblock are always [Deadline] — they are the commit barrier.
    Raises {!Fail} ([Out_of_space] or [Device_failed]) after rolling
    the generation back; committed generations keep serving. *)

val commit_result :
  t -> ?name:string -> ?cls:Iosched.cls -> unit -> (gen * Duration.t, error) result
(** {!commit} with the failure as a value. On [Error] the open
    generation has been rolled back (allocator, dedup and caches
    rebuilt from committed state) and the store remains usable. *)

val abort_generation : t -> unit
(** Discard the open generation without committing: drops the working
    tree and pending data, then rebuilds allocator/dedup/cache state
    from the committed generations. No-op when nothing is open. The
    checkpoint path uses this to degrade gracefully on a full
    device. *)

val wait_durable : t -> Duration.t -> unit
(** Block (advance the clock) until the given durability time. *)

val gen_durable_at : t -> gen -> Duration.t option
(** When the generation's superblock (hence everything it references)
    is durable. [None] for unknown generations and for generations
    recovered from disk (already durable by construction). Superblock
    durability is monotone in commit order, so a crash exposes a
    committed {e prefix} of generations — never a torn suffix. *)

val wait_all_durable : t -> unit
(** Drain the commit pipeline: block until the newest superblock is
    durable (flush, on a volatile-cache device) and settle any
    deferred frees that became releasable. Unlike the old whole-array
    barrier this awaits only the store's own writes. *)

(* --- the black-box slot ---------------------------------------------- *)

val write_blackbox : t -> string -> unit
(** Write an opaque payload to the store's dedicated black-box slot:
    two reserved blocks (after the superblocks, outside any
    generation) that alternate per write, each a {!Serial.seal} of a
    sequence number and the payload. The write is asynchronous and
    unordered — it never adds a barrier to the caller's path — so a
    crash before it completes loses this payload but leaves the
    previous slot's intact. The sealed payload must fit one device
    block ([Invalid_argument] otherwise). The flight recorder persists
    its capture/ack summary here on every checkpoint; that summary is
    what lets a post-mortem name epochs that were captured but never
    became durable. *)

val read_blackbox : t -> string option
(** The payload of the newest intact black-box slot, if any survives
    verification. *)

(* --- reading -------------------------------------------------------- *)

val read_record : t -> gen -> oid:int -> string option
val read_blob : t -> gen -> oid:int -> index:int -> string option

(** Pages leave the store by {!page_map} and {!read_page_blocks} (or
    {!peek_page_block}), for restore and export alike. {!read_page},
    {!peek_page} and {!fold_pages} are single-page views for benchmark
    replays and tests. *)
val read_page : t -> gen -> oid:int -> pindex:int -> int64 option

val peek_page : t -> gen -> oid:int -> pindex:int -> int64 option
(** An index lookup in front of {!peek_page_block}: like {!read_page}
    but the data block read is not charged to the clock (index lookups
    still are, on cache misses). *)

(** An object's pages in ascending page index: [pindexes.(i)] is held
    in block [blocks.(i)]. *)
type page_map = { pindexes : int array; blocks : int array }

val page_map : t -> ?base:gen -> gen -> oid:int -> page_map
(** An ordered scan of the object's key range in the index, which reads
    page indexes and blocks straight off the leaves: one pass counts
    them and one fills the two arrays. No data block is read. With a
    known [base], only the pages whose block differs from the base's,
    found by {!Btree.diff}: index nodes both generations share are not
    read. Restore lists an object's pages with it and export its
    changed pages, and then they read them by block, so no page costs
    an index descent. *)

val read_page_blocks : t -> int array -> int64 array
(** The pages held in [blocks] (as a {!page_map} lists them), in order,
    read as one batched command per device (latency paid once), charged
    to the store's {!read_class}. Blocks the batch DMA could not deliver
    (latent sectors, read as empty: a page block always holds a seed)
    or whose checksum fails are re-read and repaired through the
    verified single-block path, so an unreadable page raises {!Fail}
    ([Unreadable_block]) and never reads as zero. *)

val peek_page_block : t -> int -> int64
(** The page held in a block, without charging the clock for it. Used
    by lazy restore: the page's device cost is paid by the fault that
    brings it in, not at mapping time. Verified and repaired like
    {!read_page_blocks}; a repair's reads are charged. *)

val fold_blobs :
  t -> ?base:gen -> gen -> oid:int -> init:'a -> f:('a -> int -> string -> 'a) -> 'a
(** Blob (index, data) pairs of an object, in index order. With a
    known [base], only the blobs whose block differs from the base's,
    found by {!Btree.diff}: index nodes both generations share, and
    blobs not visited, are not read. *)

val fold_pages : t -> gen -> oid:int -> init:'a -> f:('a -> int -> int64 -> 'a) -> 'a
(** (pindex, seed) pairs of an object, in index order, each read with a
    verified single-block read. *)

val oids : t -> gen -> int list
(** Object ids with records in the generation, ascending. *)

val page_count : t -> gen -> oid:int -> int

(* --- generations ---------------------------------------------------- *)

val generations : t -> gen list
(** Committed generations, ascending. *)

val latest : t -> gen option
val named : t -> (string * gen) list
val find_named : t -> string -> gen option

(** [name_generation t g name] attaches (or replaces) a name on a
    committed generation — a zero-copy snapshot. Durably updates the
    generation table. Raises [Invalid_argument] on an unknown
    generation. *)
val name_generation : t -> gen -> string -> unit
val gc : t -> keep:gen list -> int
(** Drop all committed generations not listed; returns how many blocks
    were freed in place. Unknown ids in [keep] are ignored. *)

(* --- introspection -------------------------------------------------- *)

type stats = {
  live_blocks : int;
  dedup_entries : int;
  dedup_hits : int;
  dedup_misses : int;
  dedup_bytes_saved : int;
  committed_generations : int;
}

val stats : t -> stats

val capacity_blocks : t -> int option
(** The allocator's capacity cap ([None] = unbounded); inspection
    tools report utilisation against it. *)

(* --- provenance ----------------------------------------------------- *)

(** Write-time storage provenance of one generation, accumulated from
    {!begin_generation} through {!commit} and persisted in the
    generation table (so a reopened store reports the same numbers —
    the offline inspection path). [pv_logical_bytes] is what the
    checkpoint logically captured (page payloads + record/blob bytes);
    [pv_data_blocks]/[pv_meta_blocks]/[pv_mirror_blocks]/
    [pv_commit_blocks] are the blocks physically written (fresh data,
    flushed tree nodes, replicas, generation table + superblock).
    [pv_dedup_hits] counts avoided block writes (index hits plus
    intra-batch duplicates), [pv_dedup_saved_bytes] their payload. The
    type is [private]: only the store accumulates. *)
type provenance = private {
  pv_gen : gen;
  mutable pv_records : int;
  mutable pv_pages : int;
  mutable pv_blobs : int;
  mutable pv_logical_bytes : int;
  mutable pv_data_blocks : int;
  mutable pv_dedup_hits : int;
  mutable pv_dedup_saved_bytes : int;
  mutable pv_mirror_blocks : int;
  mutable pv_meta_blocks : int;
  mutable pv_commit_blocks : int;
}

val gen_provenance : t -> gen -> provenance option
(** [None] for unknown (or aborted/quarantined/collected) generations. *)

val bytes_written : provenance -> int
(** Physical bytes the generation wrote:
    [(data + mirror + meta + commit blocks) * block_size]. *)

(** The derived (walked, fsck-style) view of a generation: what is
    actually reachable from its root right now. Unlike {!provenance}
    this is not an accumulation — it is recomputed from the tree, so it
    works identically on a live store and on one just reopened from
    disk, and it reflects sharing: [r_shared_blocks] are reachable from
    at least one other committed generation too (COW structure sharing
    and dedup), [r_exclusive_blocks] from this one only (what {!gc}
    would free). [r_logical_bytes] counts page payloads + record bytes
    (blob payloads are counted as entries only). *)
type gen_report = {
  r_gen : gen;
  r_meta_blocks : int;
  r_data_blocks : int;
  r_mirror_blocks : int;
  r_record_entries : int;
  r_page_entries : int;
  r_blob_entries : int;
  r_record_bytes : int;
  r_logical_bytes : int;
  r_exclusive_blocks : int;
  r_shared_blocks : int;
}

val gen_report : t -> gen -> gen_report option
(** Walk the generation and report. Reads go through the verifying,
    self-repairing path; [None] for unknown generations. *)

(** The attribution-sum cross-check: blocks reachable by walking every
    committed generation (plus mirrors and the commit machinery's own
    blocks) against the allocator's live count. On a consistent store
    they are equal; the acceptance gate allows 1%. *)
type crosscheck = {
  x_reachable_blocks : int;
  x_live_blocks : int;
  x_within_1pct : bool;
}

val crosscheck : t -> crosscheck
(** Raises [Invalid_argument] while a generation is open. *)

(** Page-level delta of one object between two generations. *)
type oid_delta = {
  d_oid : int;
  d_pages_added : int;
  d_pages_removed : int;
  d_pages_changed : int;
}

type gen_diff = {
  df_from : gen;
  df_to : gen;
  df_oids_added : int list;    (** oids with pages in [to] only *)
  df_oids_removed : int list;  (** oids with pages in [from] only *)
  df_changed : oid_delta list; (** oids whose page sets differ *)
  df_pages_added : int;
  df_pages_removed : int;
  df_pages_changed : int;
  df_bytes_delta : int;        (** page-payload growth, may be negative *)
  df_dedup_hits_delta : int;   (** [to]'s provenance minus [from]'s *)
  df_dedup_saved_delta : int;
}

val diff : t -> from_gen:gen -> to_gen:gen -> gen_diff
(** Compare two committed generations by page block pointers (under
    dedup, pointer equality is content equality; without it, unchanged
    pages keep their blocks, so the comparison holds either way): a
    page changed when its block differs. One {!Btree.diff} each way
    finds the deltas, skipping the index nodes both generations share,
    and no data block is read. Raises [Invalid_argument] on unknown
    generations. *)

(** Fault-path counters: transient-read retries issued, checksum
    verification failures, blocks healed per repair source, and blocks
    lost beyond repair. *)
type io_stats = {
  mutable read_retries : int;
  mutable checksum_failures : int;
  mutable repaired_from_mirror : int;
  mutable repaired_from_dedup : int;
  mutable lost_blocks : int;
}

val io_stats : t -> io_stats
(** A snapshot; mutating it does not affect the store. *)

(** What {!fsck} found and did. [problems]: structural violations
    (refcount/edge mismatches, undecodable nodes, torn records).
    [healed]: blocks repaired (and rewritten in place) since the last
    report, with their repair source. [lost]: generations quarantined
    as unrecoverable, with the reason. [scanned_blocks]: blocks read
    by the scrub pass (0 without [~scrub]). *)
type fsck_report = {
  problems : string list;
  healed : (int * repair_origin) list;
  lost : (gen * string) list;
  scanned_blocks : int;
}

val fsck : ?scrub:bool -> t -> fsck_report
(** Integrity check: walks every committed generation and verifies
    (a) each tree node decodes and each reachable block is allocated,
    (b) every record reads back completely, and (c) reference counts
    equal the number of reachable edges (including mirror replicas and
    generation-table blocks). With [~scrub:true] it first reads {e
    every} reachable block cold through the verified path — repairing
    what it can, quarantining generations it cannot — and durably
    persists any losses. Drains the accumulated repair and quarantine
    logs into the report. Raises [Invalid_argument] while a generation
    is open. *)

val fsck_ok : fsck_report -> bool
(** No structural problems and nothing lost (healed repairs are
    fine — that is the machinery working). *)

val drop_caches : t -> unit
(** Evict clean caches so subsequent reads hit the device (cold
    restore measurements). Raises [Invalid_argument] while a
    generation is open. *)
