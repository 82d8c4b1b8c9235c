(** Per-process address spaces.

    An address space is an ordered list of map entries, each covering a
    page-aligned virtual range backed by a {!Vmobject.t} at some
    offset. Addresses here are virtual page numbers (vpn); byte
    offsets only appear inside a page. The write path implements the
    full fault taxonomy and charges the simulated clock accordingly:

    - demand-zero fill on first touch of an anonymous page,
    - fork copy-on-write through shadow objects ([needs_copy]),
    - Aurora's checkpoint copy-on-write on armed pages,
    - major faults on [Paged_out] pages (swap or lazy-restore image),
      charged at the backing device's read cost.

    Entries carry the knob `sls_mctl` exposes: whether the range is
    persisted at all. *)

open Aurora_simtime

type entry = {
  mutable start_vpn : int;
  mutable npages : int;
  mutable obj : Vmobject.t;
  mutable obj_offset : int;     (** page index in [obj] of [start_vpn] *)
  mutable writable : bool;
  mutable inheritance : [ `Share | `Copy ];
  mutable needs_copy : bool;    (** fork COW: shadow before first write *)
  mutable persisted : bool;     (** sls_mctl include/exclude *)
}

type fault_counts = {
  mutable zero_fill : int;
  mutable fork_cow : int;
  mutable ckpt_cow : int;
  mutable major : int;
}

type t

val create : clock:Clock.t -> pool:Frame.pool -> unit -> t
val pool : t -> Frame.pool
val entries : t -> entry list
(** Sorted by [start_vpn]. *)

val faults : t -> fault_counts

val map_anonymous :
  t -> ?inheritance:[ `Share | `Copy ] -> ?writable:bool -> npages:int -> unit -> entry
(** A fresh anonymous mapping placed after the highest existing entry.
    Inheritance defaults to [`Copy] (private memory). *)

val map_object :
  t ->
  ?inheritance:[ `Share | `Copy ] ->
  ?writable:bool ->
  obj:Vmobject.t ->
  obj_offset:int ->
  npages:int ->
  unit ->
  entry
(** Map an existing object (shared memory, file mappings); takes a
    reference on it. Inheritance defaults to [`Share]. *)

val map_fixed :
  t ->
  start_vpn:int ->
  ?inheritance:[ `Share | `Copy ] ->
  ?writable:bool ->
  obj:Vmobject.t ->
  obj_offset:int ->
  npages:int ->
  unit ->
  entry
(** Restore path: map an object at an exact virtual address (the
    checkpointed layout must be reproduced). Raises [Invalid_argument]
    if the range overlaps an existing entry. Takes a reference on the
    object. *)

val unmap : t -> entry -> unit
val destroy : t -> unit
(** Unmaps everything; the space must not be used afterwards. *)

val entry_at : t -> int -> entry option
(** The entry covering a vpn, if mapped. *)

exception Fault of string
(** Raised on access to an unmapped vpn or write to a read-only
    mapping (the simulated SIGSEGV). *)

val read : t -> vpn:int -> Content.t
(** Content of the page at [vpn] (zero if never written). Touches the
    page's heat. *)

val read_value : t -> vpn:int -> offset:int -> int64
(** A representative 64-bit load: hashes page content with the offset
    (the simulation does not track individual words). *)

val write : t -> vpn:int -> offset:int -> value:int64 -> unit
(** Store with full fault handling, as described above. *)

val load_page : t -> vpn:int -> Content.t -> unit
(** Overwrite a whole page (a page-sized [read(2)] into memory, e.g. a
    database loading a snapshot). Same fault handling as {!write},
    plus one page-copy charge. *)

val fork : t -> t
(** A child address space: [`Share] entries alias the same object,
    [`Copy] entries become copy-on-write via shadow chains (both parent
    and child [needs_copy] until first write). *)

val resident_pages : t -> int
(** Resident pages reachable through this space's entries (each
    (object, pindex) counted once). *)

val total_pages : t -> int
(** Sum of entry sizes (the mapped virtual extent). *)

val distinct_objects : t -> Vmobject.t list
(** Objects referenced by entries, deduplicated, entry order. Includes
    shadow-chain backing objects. *)
