(** The per-group persistent append-only log behind `sls_ntflush`.

    Each flush is its own micro-generation in the group's primary
    store, so a record is durable independently of (and usually long
    before) the next periodic checkpoint — this is the low-latency
    primitive the database ports use in place of their write-ahead
    logs. Records are replayed (oldest first) by a restored
    application to repair state newer than its checkpoint, and
    truncated once a checkpoint has absorbed them. *)

open Aurora_simtime

val flush : ?oid:int -> Types.pgroup -> string -> Duration.t
(** Append one record (at most one block); returns its durability
    instant. [oid] selects the log (default: the group's `sls_ntflush`
    log; the record/replay journal passes its own). Raises
    [Invalid_argument] on oversized records or a group with no local
    backend. *)

val read : ?oid:int -> Types.pgroup -> string list
val truncate : ?oid:int -> Types.pgroup -> unit
val barrier : Types.pgroup -> unit
(** Wait until the group's last checkpoint is durable. *)
