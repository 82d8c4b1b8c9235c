(** Counting semaphores (POSIX named / System V style). *)

open Aurora_simtime

type t

val create : oid:int -> ?value:int -> name:string -> unit -> t
val oid : t -> int
val name : t -> string
val value : t -> int
val post : t -> unit
val try_wait : t -> [ `Ok | `Would_block ]
val serialize : t -> Serial.writer -> unit
val deserialize : Serial.reader -> t
