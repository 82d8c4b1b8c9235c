(** The physical-memory pool: how many 4 KiB page frames are resident.

    A frame is one resident copy of a page. Its content lives unboxed in
    the owning {!Vmobject}'s columns, so the pool keeps only counts: the
    copies resident now, against an optional capacity (which is what
    creates memory pressure for the swap machinery), and every copy ever
    made. A copy stays resident while its object holds it or while an
    unreleased checkpoint capture does. *)

type pool

val create_pool : ?capacity_pages:int -> unit -> pool
(** [capacity_pages] bounds residency; [None] means unbounded. *)

val alloc : pool -> unit
(** One new resident copy. Never fails; use {!over_capacity} to detect
    pressure and trigger eviction. *)

val release : pool -> int -> unit
(** [n] copies leave residency. Raises [Invalid_argument] if fewer than
    [n] are resident. *)

val resident : pool -> int
(** Copies resident now. *)

val total_allocated : pool -> int
(** Copies ever made — monotone; used by benches for fault counting. *)

val over_capacity : pool -> int
(** How many pages beyond capacity are resident (0 when unbounded or
    under capacity). *)
