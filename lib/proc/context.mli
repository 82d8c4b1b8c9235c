(** Thread execution contexts.

    Simulated programs are state machines: a registered program name
    (the "binary on disk"), a program counter, and a small register
    file. That is exactly the state a real checkpoint captures from a
    CPU — and, like the real thing, it serializes into a few dozen
    bytes. Everything else a program knows must live in simulated
    memory or kernel objects, which is what makes checkpoint/restore
    transparent to it. *)

open Aurora_simtime

type t = {
  mutable program : string;
  mutable pc : int;
  regs : int64 array;
}

val nregs : int
(** 16 general-purpose registers. *)

val create : program:string -> t
val reg : t -> int -> int64
val set_reg : t -> int -> int64 -> unit
val reg_int : t -> int -> int
val set_reg_int : t -> int -> int -> unit
val serialize : t -> Serial.writer -> unit
val deserialize : Serial.reader -> t
