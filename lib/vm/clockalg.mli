(** Clock (second-chance) page replacement, plus the hot-set extraction
    Aurora's lazy restore uses.

    The sweep walks resident pages of the given objects in a stable
    circular order: pages whose accessed bit is set get a second chance
    (the bit is cleared); pages found cold are returned as eviction
    victims. Pages whose copy an in-flight flush holds are skipped:
    the flush still needs the copy resident.

    [Vmobject.hot_pages] provides the per-object heat ranking; this
    module adds the cross-object selection used when a checkpoint
    records which pages to page in eagerly on restore ("Aurora uses the
    clock page replacement algorithm to optimize restore by eagerly
    paging in the hottest pages"). *)

type victim = { obj : Vmobject.t; pindex : int }

type t

val create : unit -> t
(** Sweep state (the clock hand position persists across sweeps). *)

val sweep : t -> objects:Vmobject.t list -> want:int -> victim list
(** Find up to [want] eviction victims. May return fewer when most
    pages are hot or shared; at most two full revolutions are made per
    call. *)

val hot_set : objects:Vmobject.t list -> limit:int -> (Vmobject.t * int) list
(** The globally hottest [limit] (object, pindex) pairs, hottest
    first; ties broken by (object id, page index) for determinism. *)

val age : objects:Vmobject.t list -> unit
(** Apply one aging step to every object's heat counters. *)
