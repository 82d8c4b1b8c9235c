(** The kernel object registry: every first-class POSIX object, by oid.

    This is the table the orchestrator walks at checkpoint time ("each
    POSIX object ... contains code that continuously serializes and
    stores the state in the object store" — §3): each entry knows how
    to serialize itself into one record and to be recreated from it.
    Objects referenced from several processes appear here once, which
    is what guarantees single serialization and restored sharing. *)

open Aurora_simtime
open Aurora_vm

type kobj =
  | Kpipe of Pipe.t
  | Kusock of Unixsock.t
  | Ktcp of Unixsock.t  (** TCP endpoint (stream impl shared with Unix sockets) *)
  | Kshm of Shm.t
  | Kmsgq of Msgq.t
  | Ksem of Semaphore.t
  | Kkq of Kqueue.t

val kobj_oid : kobj -> int
val kobj_class : kobj -> string

type t

val create : unit -> t
val fresh_oid : t -> int
val register : t -> kobj -> unit
(** Raises [Invalid_argument] on duplicate oid. *)

val find : t -> int -> kobj option
val remove : t -> int -> unit
val count : t -> int
val fold : t -> init:'a -> f:('a -> kobj -> 'a) -> 'a
(** In increasing oid order (deterministic checkpoints). *)

(* typed accessors, for the syscall layer *)
val pipe : t -> int -> Pipe.t option
val usock : t -> int -> Unixsock.t option
val stream : t -> int -> Unixsock.t option
(** Either a Unix socket or a TCP endpoint. *)

val shm : t -> int -> Shm.t option
val msgq : t -> int -> Msgq.t option
val sem : t -> int -> Semaphore.t option
val kq : t -> int -> Kqueue.t option

val serialize_kobj : kobj -> Serial.writer -> unit
val deserialize_kobj :
  Serial.reader -> restore_obj:(int -> npages:int -> Vmobject.t) -> kobj
(** [restore_obj] resolves checkpointed VM object oids for shared
    memory segments. *)
