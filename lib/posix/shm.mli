(** Shared memory segments (POSIX [shm_open] and System V [shmget]).

    A segment is a named handle on a VM object; processes attach it
    with [Vmmap.map_object], so sharing, COW checkpointing, and
    flush-once dirty tracking all come from the VM layer. The segment
    record itself serializes only metadata — the pages travel with the
    VM object in the memory part of the checkpoint. *)

open Aurora_simtime
open Aurora_vm

type flavor = Posix_shm | Sysv_shm

type t

val create :
  oid:int -> pool:Frame.pool -> flavor:flavor -> name:string -> npages:int -> t
val oid : t -> int
val name : t -> string
val flavor : t -> flavor
val npages : t -> int
val vmobject : t -> Vmobject.t
val attach : t -> unit
val detach : t -> unit
val attach_count : t -> int

val serialize : t -> Serial.writer -> unit
(** Writes metadata including the backing VM object's oid. *)

val deserialize : Serial.reader -> restore_obj:(int -> npages:int -> Vmobject.t) -> t
(** [restore_obj] maps a checkpointed VM object oid to the recreated
    object (the memory restorer owns that table). *)
