(** kqueue-style event queues (FreeBSD's event notification object).

    Filters are registered per identifier; subsystems raise events with
    {!trigger}; applications harvest them with {!harvest}. Level
    semantics are simplified to a pending queue, which is all the
    simulated applications need, but the object checkpoints and
    restores with registrations and undelivered events intact. *)

open Aurora_simtime

type filter = Evt_read | Evt_write | Evt_timer | Evt_user

type t

val create : oid:int -> unit -> t
val oid : t -> int
val register : t -> ident:int -> filter -> unit
val registered : t -> (int * filter) list
val trigger : t -> ident:int -> filter -> unit
(** Queues an event if (ident, filter) is registered; duplicate
    pending events coalesce (kqueue semantics). *)

val harvest : t -> max:int -> (int * filter) list
(** Dequeue up to [max] pending events, oldest first. *)

val pending_count : t -> int
val serialize : t -> Serial.writer -> unit
val deserialize : Serial.reader -> t
