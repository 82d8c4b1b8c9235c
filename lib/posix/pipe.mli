(** POSIX pipes as first-class checkpointable objects.

    A pipe is one kernel object (buffer plus end states) referenced by
    two open file descriptions. All IO is non-blocking at this layer;
    callers translate [`Would_block] into scheduler wait states. *)

open Aurora_simtime

type t

val default_capacity : int
(** 64 KiB, as on FreeBSD. *)

val create : oid:int -> ?capacity:int -> unit -> t
val oid : t -> int
val buffered : t -> int

val write : t -> string -> [ `Written of int | `Would_block | `Broken ]
(** [`Broken] once the read end is closed (the simulated EPIPE). *)

val read : t -> max:int -> [ `Data of string | `Would_block | `Eof ]
(** [`Eof] when the buffer is drained and the write end is closed. *)

val close_read : t -> unit
val close_write : t -> unit
val read_open : t -> bool
val write_open : t -> bool

val serialize : t -> Serial.writer -> unit
val deserialize : Serial.reader -> t
