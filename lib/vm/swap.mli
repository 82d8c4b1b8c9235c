(** Swap: paging memory out to a backing device under pressure.

    Aurora integrates swap with checkpointing: a page swapped out due
    to memory pressure keeps its content reachable (a [Paged_out] page
    keeps its seed in the object's content column), so "when pages are swapped out due to memory
    pressure they are incorporated into the subsequent checkpoint"
    works without re-reading the device at checkpoint time, while
    faults pay the device's real read cost. *)

open Aurora_device

type t

val create : dev:Blockdev.t -> pool:Frame.pool -> t
(** The device's profile determines the major-fault cost of every page
    this swapper evicts. *)

val rebalance : t -> objects:Vmobject.t list -> int
(** If the pool is over capacity, clock-sweep the given objects and
    page victims out to the swap device until residency fits (or no
    more evictable pages exist). Returns the number of pages evicted;
    charges the clock for the device writes. *)

val pages_swapped : t -> int
(** Total pages ever written to swap. *)
