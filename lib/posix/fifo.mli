(** Bounded byte FIFO: the buffer inside pipes and socket endpoints.

    Chunk-queue implementation so large transfers do not degrade to
    quadratic copying. The full contents are serializable — in-flight
    data is part of an object's checkpoint (the CRIU pain point the
    paper cites for Unix sockets). *)

open Aurora_simtime

type t

val create : capacity:int -> t
val capacity : t -> int
val length : t -> int
val space : t -> int
val is_empty : t -> bool

val push : t -> string -> int
(** Appends up to [space] bytes; returns how many were accepted. *)

val pop : t -> max:int -> string
(** Removes and returns up to [max] buffered bytes (possibly [""]). *)

val peek_all : t -> string
(** The full buffered contents without consuming them. *)

val serialize : t -> Serial.writer -> unit
val deserialize : Serial.reader -> t
