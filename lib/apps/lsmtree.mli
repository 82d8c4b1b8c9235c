(** A log-structured merge tree (the RocksDB-shaped baseline).

    A memtable absorbs writes; when it exceeds its limit it is flushed
    to an immutable sorted-table file; tables are merged by
    compaction; a MANIFEST file (replaced by atomic rename) names the
    live tables. All IO goes through the simulated syscall layer of a
    host process, so device time and fsync costs are real.

    Durability is the experiment knob (§4):
    - [Wal_fsync]: every write appends to a write-ahead log and
      fsyncs — the classic arrangement whose "subtle semantic issues
      ... lead to data loss bugs in even mature projects";
    - [Aurora_log]: the port — the WAL is replaced by `sls_ntflush`
      (one call, no fsync semantics) and recovery replays the SLS
      log. Table files and compaction stay identical.

    The memtable lives in OCaml state (this library is the *baseline
    persistence machinery*; transparent whole-process checkpointing
    is exercised by {!Kvstore}, whose state lives in simulated
    memory). *)

open Aurora_proc

type persistence = Wal_fsync | Aurora_log

type t

val create :
  Kernel.t -> Process.t -> dir:string -> ?memtable_limit:int ->
  ?compaction_threshold:int -> persistence -> t
(** Fresh tree rooted at [dir] (created if missing). [memtable_limit]
    (default 64 entries) triggers flushes; when the live table count
    exceeds [compaction_threshold] (default 8; size-tiered, single
    level) a compaction runs automatically. *)

val recover : Kernel.t -> Process.t -> dir:string -> persistence -> t
(** Rebuild from MANIFEST + tables, then replay the WAL (or SLS log)
    tail into the memtable. *)

val put : t -> key:string -> value:string -> unit
val get : t -> key:string -> string option
val delete : t -> key:string -> unit

val flush_memtable : t -> unit
(** Force the memtable into a new sorted table. *)

val compact : t -> unit
(** Merge every live table (newest wins, tombstones dropped) into
    one. *)

val entries : t -> (string * string) list
(** Full logical contents, sorted by key (the equality oracle for
    crash tests). *)

val sstable_count : t -> int
