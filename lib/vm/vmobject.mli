(** Mach-derived virtual memory objects.

    A VM object is the unit of memory backing: an ordered collection of
    pages, optionally layered over a [shadow] (backing) object — the
    chain structure FreeBSD inherited from Mach that fork-time
    copy-on-write builds. Aurora's key VM change lives here too:

    - {b Checkpoint arming} ({!arm}): during the serialization
      barrier the orchestrator write-protects pages and captures them
      for the asynchronous flush, by value, as page index and seed
      columns. A later write
      to an armed page triggers Aurora's modified COW: a {e new} copy
      replaces the old one {e inside the same object}, so every process
      mapping the object observes the new page (shared-memory semantics
      are preserved — the problem §3 describes with standard fork COW),
      while the flush keeps the original: the capture's own copy of its
      content. A capture pins no page.
    - {b Object-level dirty tracking}: dirtiness is recorded per
      (object, page), not per process, so a page shared by many
      processes is flushed exactly once per checkpoint ("it thus never
      flushes the same page twice for shared memory or COW memory
      regions").
    - {b Heat counters} count accesses per page; the checkpoint stores
      the hot set so lazy restore can eagerly page in the hottest pages.

    Pages live in columns indexed by page index, with no record per
    page: the content seed (8 bytes), a state byte (absent, resident or
    paged out) and, from the first paged-out page, the device cost of
    faulting the page back in. Storing into a resident page updates its
    seed in place and allocates nothing. *)

open Aurora_simtime

type kind = Anonymous | Vnode of int  (** [Vnode v]: file-backed, vnode id [v] *)

(** Where a page is. [Paged_out]: left behind in the image by a lazy
    restore; faulting it in costs {!read_cost} of device time. *)
type status = Absent | Resident | Paged_out

type t

val create : pool:Frame.pool -> kind -> t
val oid : t -> int
val kind : t -> kind
val incref : t -> unit
val decref : t -> unit
(** At zero, releases all resident copies, drops the page columns,
    clears the dirty, armed and heat state, and drops the shadow
    reference. *)

val shadow_of : t -> t option
val make_shadow : t -> t
(** A fresh empty object backed by [t] (for fork COW); takes a
    reference on [t]. *)

val resolve : t -> int -> t
(** The object in [t]'s shadow chain that holds page [pindex]: the first
    one, from [t] down, where the page is not [Absent]; the chain's last
    object when none holds it. Allocates nothing. *)

val status : t -> int -> status

val content : t -> int -> Content.t
(** The page's content, resident or paged out; {!Content.zero} when
    absent. *)

val read_cost : t -> int -> Duration.t
(** Device time to fault a paged-out page in; zero for any other page. *)

val reserve : t -> pages:int -> unit
(** Size the columns for page indexes below [pages] now, so installing
    them does not grow the columns step by step. *)

val install : t -> int -> Content.t -> unit
(** Make a fresh resident copy at a page index, replacing (and
    releasing) any predecessor. *)

val install_paged_out : t -> int -> content:Content.t -> read_cost:Duration.t -> unit

val page_in : t -> int -> unit
(** Make a [Paged_out] page resident: a fresh copy of its content.
    Raises [Invalid_argument] if the page is not paged out. *)

val write : t -> int -> offset:int -> value:int64 -> unit
(** Store into a resident page in place ({!Content.write}); allocates
    nothing. The caller takes any checkpoint-COW fault first. Raises
    [Invalid_argument] if the page is not resident. *)

val set_content : t -> int -> Content.t -> unit
(** Replace a resident page's whole content in place. Raises
    [Invalid_argument] if the page is not resident. *)

val load : t -> int -> offset:int -> int64
(** [Content.load (content t pindex) ~offset], boxing only the result. *)

(* --- checkpoint support ------------------------------------------- *)

(** The pages one arming captured, in ascending page index order, as
    two columns of one length: page [pindexes.(i)] had content
    [Content.get seeds i]. The capture holds the contents by value, so
    it pins no copy: a COW fault, an install or the object's death may
    replace or release a captured page at once. *)
type capture = private {
  pindexes : int array;
  seeds : Bytes.t;  (** {!Content.slot_bytes} a page *)
}

val arm : t -> mode:[ `Full | `Dirty_only ] -> capture
(** Write-protect pages and capture them for flushing, into columns
    made at their exact size. [`Full] captures every present page;
    [`Dirty_only] captures pages written since the previous arming, at a
    cost proportional to the dirty pages plus one read per 32 page
    indexes. The object's first arming captures every present page
    whatever the mode, since none was captured before. Clears the dirty
    set; already-armed clean pages stay armed. *)

(** {2 The list view}

    One record per captured page: a view over {!arm} for benchmark
    replays and tests. Checkpoints and the CRIU baseline capture through
    the columns. *)

type flush_item = private { pindex : int; content : Content.t }

val arm_for_checkpoint : t -> mode:[ `Full | `Dirty_only ] -> flush_item list
(** {!arm}, as one item per captured page, in ascending page index
    order. *)

val release_flush_item : pool:Frame.pool -> flush_item -> unit
(** Does nothing: an item holds its page by value and pins no copy. It
    is kept because the two-clock benchmark's arming replay calls it;
    delete it when that replay arms through {!arm}. *)

val is_armed : t -> int -> bool
val armed_count : t -> int
val dirty_count : t -> int
val mark_dirty : t -> int -> unit

val disarm_for_write : t -> int -> unit
(** Aurora's checkpoint-COW fault on an armed resident page: make a
    fresh copy of the page in place (all mappers now share it), unarm,
    mark dirty. The old copy leaves residency; a capture of it keeps
    its content. Raises [Invalid_argument] if the page is not
    armed-resident. *)

val cow_breaks : t -> int
(** COW breaks ({!disarm_for_write} faults) taken against this object
    since the last {!reset_cow_breaks} — the "writes that raced a
    checkpoint" attribution signal. *)

val reset_cow_breaks : t -> unit
(** Zero the COW-break counter (the checkpoint engine resets it after
    folding the count into the attribution it publishes). *)

(* --- heat --------------------------------------------------------- *)

val touch : t -> int -> unit
(** Record an access: bumps the page's heat counter. Heat is kept in
    chunks of 64 pages; the first touch of a page in a chunk allocates
    the chunk. *)

val heat : t -> int -> int
val age_heat : t -> unit
(** Halve all heat counters. *)

val hot_pages : t -> limit:int -> int list
(** Up to [limit] page indexes with nonzero heat: heat descending, ties
    by page index ascending. Linear in the object's heat chunks plus
    [limit log limit]. *)

(* --- iteration / stats -------------------------------------------- *)

val fold_pages : t -> init:'a -> f:('a -> int -> status -> 'a) -> 'a
(** Over this object's own present pages (not the chain), in
    increasing page index order. *)

val resident_count : t -> int
(** Resident pages of this object, kept as a count. *)

val chain_depth : t -> int
