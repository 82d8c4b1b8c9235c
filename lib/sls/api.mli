(** libsls: the developer API of Table 2.

    These are the calls modified applications use to control and
    optimize persistence — the database port in [Aurora_apps.Kvstore]
    is built entirely on them:

    - {!sls_checkpoint} / {!sls_restore} / {!sls_rollback} manipulate
      whole-application state explicitly;
    - {!sls_ntflush} is the persistent append-only log primitive ("a
      low latency flush ... to a storage medium"; applications repair
      their data structures from it after a restore);
    - {!sls_barrier} blocks until the latest checkpoint is durable;
    - {!sls_mctl} includes/excludes memory regions;
    - {!sls_fdctl} toggles external consistency per descriptor. *)

open Aurora_simtime
open Aurora_vm
open Aurora_proc
open Aurora_objstore

val sls_checkpoint : Machine.t -> Types.pgroup -> ?name:string -> unit -> Store.gen
(** Manual checkpoint (Table 2's [sls_checkpoint()]); returns the
    image's generation. *)

val sls_restore :
  Machine.t -> Types.pgroup -> ?gen:Store.gen -> ?policy:Types.restore_policy -> unit ->
  int list
(** Restore a checkpoint (replacing the running group); returns the
    pids. *)

val sls_rollback : Machine.t -> Types.pgroup -> int list
(** Roll the group back to its last checkpoint. Raises
    [Invalid_argument] when the group has never been checkpointed. The
    returned pids' programs observe the rollback (register 15 is set
    to 1 in every restored thread — the paper's "Aurora notifies the
    client of the rollback" hook). *)

val sls_barrier : Machine.t -> Types.pgroup -> unit
(** Wait (advance the clock) until the group's last checkpoint is
    durable on its primary backend. *)

val sls_ntflush : Machine.t -> Types.pgroup -> string -> Duration.t
(** Append a record to the group's persistent log and queue it to
    storage; returns the durability instant (combine with
    {!sls_barrier_until} to block on it). *)

val sls_barrier_until : Machine.t -> Duration.t -> unit

val sls_log_read : Machine.t -> Types.pgroup -> string list
(** The persistent log's surviving records, oldest first (what a
    restored application replays). *)

val sls_log_truncate : Machine.t -> Types.pgroup -> unit
(** Drop the log (after its contents are absorbed by a checkpoint). *)

val sls_mctl : Machine.t -> Process.t -> Vmmap.entry -> persist:bool -> unit

val sls_fdctl : Process.t -> fd:int -> ext_consistency:bool -> unit
