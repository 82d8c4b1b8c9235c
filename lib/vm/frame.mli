(** The physical-memory pool: how many 4 KiB page frames are resident.

    A frame is one resident copy of a page. Its content lives unboxed in
    the owning {!Vmobject}'s columns, so the pool keeps only counts: the
    copies resident now, and every copy ever made. A copy stays resident
    while its object holds it; a checkpoint capture holds contents by
    value and pins no frame. *)

type pool

val create_pool : unit -> pool

val alloc : pool -> unit
(** One new resident copy. Never fails: residency is unbounded. *)

val release : pool -> int -> unit
(** [n] copies leave residency. Raises [Invalid_argument] if fewer than
    [n] are resident. *)

val resident : pool -> int
(** Copies resident now. *)

val total_allocated : pool -> int
(** Copies ever made — monotone; used by benches for fault counting. *)
