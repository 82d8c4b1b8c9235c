(** Mach-derived virtual memory objects.

    A VM object is the unit of memory backing: an ordered collection of
    pages, optionally layered over a [shadow] (backing) object — the
    chain structure FreeBSD inherited from Mach that fork-time
    copy-on-write builds. Aurora's key VM change lives here too:

    - {b Checkpoint arming} ({!arm_for_checkpoint}): during the
      serialization barrier the orchestrator write-protects pages and
      takes stable references for the asynchronous flush. A later write
      to an armed page triggers Aurora's modified COW: a {e new} frame
      replaces the old one {e inside the same object}, so every process
      mapping the object observes the new page (shared-memory semantics
      are preserved — the problem §3 describes with standard fork COW),
      while the flush keeps the original.
    - {b Object-level dirty tracking}: dirtiness is recorded per
      (object, page), not per process, so a page shared by many
      processes is flushed exactly once per checkpoint ("it thus never
      flushes the same page twice for shared memory or COW memory
      regions").
    - {b Heat counters} approximate the clock algorithm's access
      history; the checkpoint stores the hot set so lazy restore can
      eagerly page in the hottest pages. *)

open Aurora_simtime

type kind = Anonymous | Vnode of int  (** [Vnode v]: file-backed, vnode id [v] *)

type pslot =
  | Resident of Frame.t
  | Paged_out of { content : Content.t; read_cost : Duration.t }
      (** swapped out, or left behind in the image by a lazy restore;
          faulting it in costs [read_cost] of device time *)

type t

val create : pool:Frame.pool -> kind -> t
val oid : t -> int
val kind : t -> kind
val incref : t -> unit
val decref : t -> unit
(** At zero, releases all resident frames, clears the dirty, armed and
    heat state, and drops the shadow reference. *)

val shadow_of : t -> t option
val make_shadow : t -> t
(** A fresh empty object backed by [t] (for fork COW); takes a
    reference on [t]. *)

(** Result of resolving a page index through the shadow chain. The
    owner is the object in the chain that holds the page. *)
type resolution =
  | Found of { owner : t; slot : pslot }
  | Absent

val resolve : t -> int -> resolution

val install : t -> int -> Frame.t -> unit
(** Install a frame at a page index, replacing (and releasing) any
    resident predecessor. *)

val install_paged_out : t -> int -> content:Content.t -> read_cost:Duration.t -> unit

val page_in : t -> int -> Frame.t -> unit
(** Replace a [Paged_out] slot with a resident frame. Raises
    [Invalid_argument] if the slot is not paged out. *)

val page_out : t -> int -> read_cost:Duration.t -> Content.t
(** Convert a resident page to [Paged_out]; returns the content (for
    the swap writer). Raises [Invalid_argument] if not resident or if
    the frame is shared (refcount > 1). *)

(* --- checkpoint support ------------------------------------------- *)

(** One page captured by a checkpoint barrier. [frame] is [Some] (with
    an extra reference held for the flusher) when the page was
    resident; the flusher must [release_flush_item] when done. *)
type flush_item = { pindex : int; content : Content.t; frame : Frame.t option }

val arm_for_checkpoint : t -> mode:[ `Full | `Dirty_only ] -> flush_item list
(** Write-protect pages and return stable captures for flushing, in
    ascending page index order. [`Full] captures every page;
    [`Dirty_only] captures pages written since the previous arming
    (plus never-captured pages), at a cost proportional to the dirty
    pages plus one read per 32 page indexes. Clears the dirty set;
    already-armed clean pages stay armed. *)

val release_flush_item : pool:Frame.pool -> flush_item -> unit
val is_armed : t -> int -> bool
val armed_count : t -> int
val dirty_count : t -> int
val mark_dirty : t -> int -> unit

val disarm_for_write : t -> int -> Frame.t
(** Aurora's checkpoint-COW fault on an armed resident page: allocate a
    copy, install it in place (all mappers now share the new frame),
    unarm, mark dirty; returns the new frame. Raises
    [Invalid_argument] if the page is not armed-resident. *)

val cow_breaks : t -> int
(** COW breaks ({!disarm_for_write} faults) taken against this object
    since the last {!reset_cow_breaks} — the "writes that raced a
    checkpoint" attribution signal. *)

val reset_cow_breaks : t -> unit
(** Zero the COW-break counter (the checkpoint engine resets it after
    folding the count into the attribution it publishes). *)

(* --- heat / clock ------------------------------------------------- *)

val touch : t -> int -> unit
(** Record an access: bumps the page's heat counter and the frame's
    accessed bit. Heat is kept in chunks of 64 pages; the first touch
    of a page in a chunk allocates the chunk. *)

val heat : t -> int -> int
val age_heat : t -> unit
(** Halve all heat counters (aging step of the clock approximation). *)

val hot_pages : t -> limit:int -> int list
(** Up to [limit] page indexes with nonzero heat: heat descending, ties
    by page index ascending. *)

(* --- iteration / stats -------------------------------------------- *)

val fold_pages : t -> init:'a -> f:('a -> int -> pslot -> 'a) -> 'a
(** Over this object's own pages (not the chain), in increasing page
    index order. *)

val resident_count : t -> int
val chain_depth : t -> int
