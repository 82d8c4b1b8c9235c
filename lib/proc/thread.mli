(** Kernel threads.

    The wait state is data, not a closure, so a blocked thread
    checkpoints and restores still-blocked — e.g. a server thread
    parked in accept() resumes parked, and wakes when a connection
    arrives in the restored listener's backlog. *)

open Aurora_simtime

type wait =
  | Wait_read of int      (** readable data on object [oid] *)
  | Wait_write of int     (** writable space on object [oid] *)
  | Wait_accept of int    (** pending connection on listener [oid] *)
  | Wait_sem of int       (** semaphore [oid] > 0 *)
  | Wait_sleep_until of Duration.t
  | Wait_child of int     (** exit of pid (-1: any child) *)
  | Wait_forever          (** parked until something external unblocks it *)

type state = Runnable | Blocked of wait | Exited of int

type t = {
  tid : int;
  mutable state : state;
  context : Context.t;
}

val create : tid:int -> program:string -> t
val is_runnable : t -> bool
val is_exited : t -> bool
val serialize : t -> Serial.writer -> unit
val deserialize : Serial.reader -> t
