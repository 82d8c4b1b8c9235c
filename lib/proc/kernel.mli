(** The simulated kernel instance: one per machine.

    Owns the clock, physical memory, the POSIX object registry, the
    network stack, the file system, the process table, and containers.
    The SLS orchestrator (in [aurora_sls]) attaches to a kernel; its
    external-consistency machinery interposes on socket transmission
    through [send_hook]. *)

open Aurora_simtime
open Aurora_vm
open Aurora_posix
open Aurora_vfs

type send_hook =
  src:Unixsock.t -> ofd:Fd.ofd -> data:string -> [ `Deliver | `Buffered of int ]
(** Called before delivering stream data. [`Buffered n] claims the
    data (n bytes accepted into the consistency buffer); [`Deliver]
    lets the kernel deliver immediately. *)

(** The libsls "system calls" available to simulated programs; the SLS
    machine installs the handler ([sls_ops]). The flush/checkpoint/
    barrier operations return [Sls_time]; log reads return [Sls_log]. *)
type sls_op =
  | Sls_ntflush of string
  | Sls_checkpoint
  | Sls_barrier
  | Sls_log_read
  | Sls_log_truncate
  | Sls_fdctl of int * bool  (** descriptor, external consistency *)
  | Sls_mctl of int * bool   (** a vpn inside the region, persist flag *)

type sls_result = Sls_time of Duration.t | Sls_log of string list

type t = {
  clock : Clock.t;
  pool : Frame.pool;
  registry : Registry.t;
  netstack : Netstack.t;
  mutable fs : Memfs.t;
  unix_ns : (string, int) Hashtbl.t; (** unix-socket bind names -> listener oid *)
  procs : (int, Process.t) Hashtbl.t;
  mutable next_pid : int;
  containers : (int, Container.t) Hashtbl.t;
  mutable next_cid : int;
  obs : Obs.t;
  (** the machine-wide sinks; devices, stores, replication and the SLO
      watchdog are bound to this same handle *)
  prng : Prng.t;
  mutable send_hook : send_hook option;
  mutable sls_ops : (pid:int -> sls_op -> sls_result) option;
}

val create : ?clock:Clock.t -> unit -> t

val charge : t -> Duration.t -> unit
(** Advance the clock (application compute, kernel work). *)

val spawn :
  t -> ?container:int -> ?parent:int -> name:string -> program:string -> unit -> Process.t
(** Create a process with a fresh address space running [program]. *)

val proc : t -> int -> Process.t option
val proc_exn : t -> int -> Process.t
val processes : t -> Process.t list
(** Sorted by pid. *)

val container_procs : t -> int -> Process.t list
val new_container : t -> name:string -> Container.t
val ensure_container : t -> cid:int -> name:string -> unit
(** Restore path: make sure a container id exists. *)

val remove_proc : t -> int -> unit

val lookup_stream : t -> int -> Unixsock.t option
(** Resolver handed to socket operations (unix + tcp endpoints). *)
