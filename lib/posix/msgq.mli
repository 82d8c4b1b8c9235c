(** System V message queues. *)

open Aurora_simtime

type t

val create : oid:int -> ?max_bytes:int -> key:string -> unit -> t
val oid : t -> int
val key : t -> string
val bytes_used : t -> int
val message_count : t -> int

val send : t -> mtype:int -> string -> [ `Ok | `Would_block ]
(** [mtype] must be positive; [`Would_block] when the queue byte limit
    would be exceeded. *)

val recv : t -> ?mtype:int -> unit -> [ `Msg of int * string | `Would_block ]
(** Without [mtype], the oldest message; with [mtype], the oldest
    message of that type (System V selective receive). *)

val serialize : t -> Serial.writer -> unit
val deserialize : Serial.reader -> t
