(** External consistency (§3.2, after Nightingale et al.'s "Rethink
    the Sync").

    Output from a persisted application that crosses the persistence
    group boundary must not be observed by the outside world until the
    checkpoint covering it is durable — otherwise a crash could roll
    the application back past state a remote peer already acted on.
    This module interposes on stream transmission (via
    [Kernel.send_hook]): data sent on a descriptor with the
    [ext_consistency] flag to a peer outside the sender's group is
    buffered; each checkpoint stamps the buffered items it covers with
    its durability instant; the orchestrator's tick releases them once
    the clock passes it.

    `sls_fdctl` clears the per-descriptor flag for peers that can
    tolerate observing unpersisted state, trading consistency for
    latency (the F-extcons bench quantifies the trade). *)

open Aurora_simtime
open Aurora_proc

type t

val install : Kernel.t -> groups:(unit -> Types.pgroup list) -> t
(** Registers the send hook. [groups] provides the live group list
    (the machine owns it). *)

val handle :
  t -> src:Aurora_posix.Unixsock.t -> ofd:Aurora_posix.Fd.ofd -> data:string ->
  [ `Deliver | `Buffered of int ]
(** The hook body, exposed so the machine can compose it with other
    interposition (input recording). *)

val endpoint_owner : Kernel.t -> int -> Process.t option
(** The process holding a descriptor over the endpoint, if any. *)

val on_checkpoint : t -> Types.pgroup -> barrier:Duration.t -> durable_at:Duration.t -> unit
(** Stamp buffered items sent by this group at or before [barrier]:
    they become releasable at [durable_at]. *)

val release_due : t -> int
(** Deliver every releasable buffered item whose release time has
    passed; returns how many were delivered. *)

val pending : t -> int
(** Items buffered and not yet released. *)

val uninstall : t -> unit
