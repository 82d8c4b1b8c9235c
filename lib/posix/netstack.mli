(** Loopback TCP networking.

    Connected TCP endpoints share their implementation with
    {!Unixsock} — in the simulation both are reliable in-kernel byte
    streams; what distinguishes TCP is addressing (ports) and that a
    TCP peer may sit {e outside} the persistence group, which is where
    the SLS external-consistency machinery interposes (see
    [Aurora_sls.Extconsist]). Cross-machine connections are bridged by
    the orchestrator over {!Aurora_device.Netlink}.

    The [t] value is one machine's port table. *)

open Aurora_simtime

type endpoint = Unixsock.t

type t

val create : unit -> t

val listen : t -> endpoint -> port:int -> backlog:int -> unit
(** Bind and listen. Raises [Invalid_argument] if the port is taken or
    the endpoint is not fresh. *)

val listener_on : t -> port:int -> int option
(** The listening endpoint's oid, if any. *)

val connect :
  t ->
  src:endpoint ->
  port:int ->
  peer_oid:int ->
  lookup:(int -> endpoint option) ->
  [ `Connected of endpoint | `Refused ]
(** Three-way handshake condensed: creates the server-side endpoint
    and queues it on the listener's accept queue. *)

val release_port : t -> port:int -> unit

val rebind : t -> endpoint -> unit
(** Re-enter a restored listening endpoint into the port table (its
    bound name encodes the port). *)

val serialize : t -> Serial.writer -> unit
val deserialize : Serial.reader -> t
