(** Unix domain (local) stream sockets.

    Each value is one endpoint; connected endpoints reference each
    other by oid (the serialization currency — the module never holds
    direct peer pointers, so checkpointing a socket pair is two
    independent records plus the oid link, exactly the paper's
    first-class-object treatment; contrast CRIU's seven-year Unix
    socket saga, §2).

    The name space (path -> listening endpoint) is owned by the caller
    (one per machine); peer resolution goes through the [lookup]
    callback so this module stays free of registry dependencies. *)

open Aurora_simtime

type state =
  | Fresh
  | Listening of { backlog : int; mutable pending : int list }
      (** oids of endpoints awaiting accept, oldest first *)
  | Connected of { mutable peer : int }
  | Closed

type t

val create : oid:int -> ?capacity:int -> unit -> t
val oid : t -> int
val state : t -> state
val bound_name : t -> string option

val socketpair : oid_a:int -> oid_b:int -> t * t
(** Two connected endpoints (the [socketpair(2)] shortcut). *)

val listen : t -> name:string -> backlog:int -> unit
(** Raises [Invalid_argument] unless the endpoint is [Fresh]. *)

val connect :
  t -> listener:t -> peer_oid:int -> [ `Connected of t | `Refused ]
(** Connect [t] to a listening endpoint: creates the server-side
    endpoint (with oid [peer_oid]), queues it for accept. [`Refused]
    when the backlog is full or the target is not listening. *)

val accept : t -> [ `Endpoint of int | `Would_block ]
(** Dequeue a pending connection's endpoint oid. *)

val send : t -> lookup:(int -> t option) -> string ->
  [ `Sent of int | `Would_block | `Reset ]
(** Deliver into the peer's inbox. [`Reset] when unconnected or the
    peer is gone/closed. *)

val deliver : t -> string -> int
(** Push bytes straight into this endpoint's inbox, regardless of
    connection state — kernel-side delivery of data that was already
    in flight (the external-consistency buffer uses this: output is
    released even if the sending descriptor has since closed). Returns
    bytes accepted. *)

val recv : t -> max:int -> [ `Data of string | `Would_block | `Eof ]
val close : t -> lookup:(int -> t option) -> unit
(** Marks closed; a connected peer observes EOF after draining. *)

val buffered : t -> int

val serialize : t -> Serial.writer -> unit
val deserialize : Serial.reader -> t
