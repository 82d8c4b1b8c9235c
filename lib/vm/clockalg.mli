(** Clock (second-chance) page replacement.

    The sweep walks resident pages of the given objects in a stable
    circular order: pages whose accessed bit is set get a second chance
    (the bit is cleared); pages found cold are returned as eviction
    victims. Pages whose copy an in-flight flush holds are skipped:
    the flush still needs the copy resident. *)

type victim = { obj : Vmobject.t; pindex : int }

type t

val create : unit -> t
(** Sweep state (the clock hand position persists across sweeps). *)

val sweep : t -> objects:Vmobject.t list -> want:int -> victim list
(** Find up to [want] eviction victims. May return fewer when most
    pages are hot or shared; at most two full revolutions are made per
    call. *)
