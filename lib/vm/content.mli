(** Page contents, represented compactly.

    A 4 KiB page's content is represented by a 64-bit seed rather than
    by the bytes themselves, so simulating a 2 GiB working set costs
    half a million small records instead of two gigabytes. The mapping
    seed -> bytes is deterministic and injective-in-practice (a
    SplitMix64 expansion), so content identity — which is what
    copy-on-write, dirty tracking, and the object store's deduplication
    actually depend on — is preserved: equal seeds mean equal pages.

    [write] folds a (64-bit offset, value) store into the seed with a
    mixing function, so distinct write sequences yield distinct
    contents with overwhelming probability. *)

type t

val zero : t
(** The all-zeroes page. *)

val of_seed : int64 -> t
val to_seed : t -> int64

val write : t -> offset:int -> value:int64 -> t
(** The content after storing [value] at byte [offset] (0 <= offset <
    4096). Folding is order-sensitive, like real memory. *)

val hash : t -> int64
(** Content hash used by the object store's deduplication index. *)

val load : t -> offset:int -> int64
(** A representative 64-bit load at byte [offset]: the content hash
    mixed with the offset (the simulation does not track individual
    words). *)

val equal : t -> t -> bool
val is_zero : t -> bool

val to_bytes : t -> bytes
(** Materialize the full 4 KiB deterministic expansion. Used only by
    tests that need byte-level checks. *)

(** {2 Columns}

    A VM object stores its pages' contents unboxed, {!slot_bytes} bytes
    per page index in one [Bytes.t], so storing into a page or loading
    from it allocates nothing beyond a boxed result. A slot never set
    reads {!zero}. *)

val slot_bytes : int

val get : Bytes.t -> int -> t
(** The content in slot [i]. *)

val set : Bytes.t -> int -> t -> unit

val write_in : Bytes.t -> int -> offset:int -> value:int64 -> unit
(** [write_in col i ~offset ~value] stores [write (get col i) ~offset
    ~value] into slot [i], allocating nothing. *)

val load_in : Bytes.t -> int -> offset:int -> int64
(** [load (get col i) ~offset], boxing only the result. *)

val hash_column : Bytes.t -> Bytes.t
(** The {!hash} of each slot's content, as a fresh column of 8-byte
    hashes in slot order; nothing is boxed per slot. *)

val pp : Format.formatter -> t -> unit
