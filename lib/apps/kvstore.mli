(** A Redis-like in-memory key-value store.

    The store's entire state is a region of {e simulated} memory (512
    eight-byte slots per page) plus, depending on the persistence
    mode, files or SLS log records — never OCaml-side state, which is
    what makes it transparently checkpointable. Three persistence
    modes reproduce the §4 "Databases" comparison:

    - [`None]: purely ephemeral.
    - [`Wal]: what Redis actually does — an append-only file fsynced
      every [fsync_every] operations, plus periodic snapshots taken by
      {e forking} and having the copy-on-write child dump the data
      region to a file (RDB-style). Recovery loads the newest snapshot
      and replays the log tail.
    - [`Aurora]: the paper's port — `sls_ntflush` per write replaces
      the AOF, transparent/manual checkpoints replace fork snapshots,
      and recovery is an SLS restore plus a log-tail replay
      ({!repair_after_restore}). Less code and no fsync semantics to
      get wrong.

    A socket-serving variant ({!spawn_server}) executes operations
    requested by a client over a stream — the external-consistency
    bench measures client-observed latency against it. *)

open Aurora_proc

type mode = Ephemeral | Wal | Aurora

type config = {
  spec : Workload.spec;
  mode : mode;
  ops_limit : int;          (** 0 = run until stopped *)
  snapshot_every : int;     (** [`Wal]: fork-snapshot period, in ops *)
  fsync_every : int;        (** [`Wal]: AOF fsync period, in ops *)
  ops_per_step : int;       (** batch per scheduler quantum *)
  preload : bool;           (** touch the whole region at startup, making
                                the full working set resident (the
                                Table 3 configuration) *)
}

val default_config : ?mode:mode -> nkeys:int -> unit -> config

val spawn : Kernel.t -> ?container:int -> ?recover:bool -> config -> Process.t
(** Start a store. With [recover] (mode [`Wal]), the program first
    loads its snapshot and replays its log from the file system. *)

val spawn_server : Kernel.t -> ?container:int -> config -> fd:int -> Process.t -> unit
(** Turn [fd] of an existing kv process into a served socket...
    (internal use by {!spawn_server_pair}). *)

val spawn_server_pair :
  Kernel.t -> ?container:int -> config -> Process.t * Process.t * int
(** (server, client-side holder process, client fd): a kv server wired
    to an external client process over a socketpair. The client
    process is parked; drive it with {!client_request} /
    {!client_reply}. *)

val client_request : Kernel.t -> Process.t -> fd:int -> opnum:int -> unit
val client_reply : Kernel.t -> Process.t -> fd:int -> string option
(** Non-blocking read of the server's reply. *)

(* --- inspection / recovery ------------------------------------------ *)

val ops_done : Process.t -> int
val base_vpn : Process.t -> int
val npages : config -> int
val region_digest : Kernel.t -> Process.t -> config -> int64
(** Order-sensitive hash of the whole data region (the recovery
    equality check). *)

val repair_after_restore : Process.t -> unit
(** Mode [`Aurora]: after an SLS restore, route the program through its
    log-replay repair step before it resumes serving. *)

val snapshot_path : string
