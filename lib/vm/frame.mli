(** Physical page frames and the physical-memory pool.

    A frame is one resident 4 KiB physical page: content plus a
    reference count (frames are shared by COW, by shared mappings, and
    by in-flight checkpoint flushes) and an accessed bit for the clock
    replacement algorithm. The pool tracks residency against an
    optional capacity, which is what creates memory pressure for the
    swap machinery. *)

type t = {
  mutable content : Content.t;
  mutable refcount : int;
  mutable accessed : bool;
}

type pool

val create_pool : ?capacity_pages:int -> unit -> pool
(** [capacity_pages] bounds residency; [None] means unbounded. *)

val alloc : pool -> Content.t -> t
(** A fresh frame with refcount 1. Never fails; use {!over_capacity}
    to detect pressure and trigger eviction. *)

val incref : t -> unit

val decref : pool -> t -> unit
(** Drops a reference; at zero the frame leaves residency. Raises
    [Invalid_argument] on a dead frame (refcount already 0). *)

val resident : pool -> int
(** Live frames (refcount > 0). *)

val total_allocated : pool -> int
(** Frames ever allocated — monotone; used by benches for fault
    counting. *)

val over_capacity : pool -> int
(** How many pages beyond capacity are resident (0 when unbounded or
    under capacity). *)
