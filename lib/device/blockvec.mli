(** State keyed by a dense index: a growable array.

    Any index that is handed out from a small range, with few holes,
    fits. Block numbers do (the object store's allocator hands out
    [[first_block, next_fresh)] and reuses freed blocks first), so the
    B-tree node cache and device contents are arrays, not hash tables.
    So do a VM object's page indexes, so its dirty and armed bitmaps and
    the directory of its heat chunks are too. State that is one number
    per index is kept unboxed in a [Bytes] column instead: the
    allocator's refcounts, the dedup reverse index and a VM object's
    page seeds and states. The array reaches the highest index set, so
    a sparse index would pay for every hole.
    Plain data, with no closure: devices and VM objects holding one
    marshal into universe files. *)

type 'a t

val create : 'a -> 'a t
(** [create default]: every slot reads [default] until it is set. *)

val get : 'a t -> int -> 'a
(** [default] for a slot never set, including any index past the end
    or negative. Never grows the array. *)

val set : 'a t -> int -> 'a -> unit
(** Grows the array by doubling until it covers the index. Raises
    [Invalid_argument] on a negative index. *)

val length : 'a t -> int
(** Every slot at or past [length] reads [default]. *)

val clear : 'a t -> unit
(** Every slot reads [default] again. *)
