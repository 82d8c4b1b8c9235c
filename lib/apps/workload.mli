(** Workload shapes shared by the applications and benches.

    Simulated programs must derive each operation purely from their
    (serializable) cursor — a checkpointed program resumes mid-workload
    and must regenerate the same remaining stream. [op_of] is that
    pure function: operation number -> (kind, key, value).

    The skew model is the 80/20 hot-set approximation: a fraction of
    operations target the hot prefix of the key space. It reproduces
    the page-locality property that matters here (dirty-set size
    versus working-set size under incremental checkpointing) without
    needing non-serializable generator state. *)

type kind = Get | Set | Incr | Del

type spec = {
  nkeys : int;
  write_pct : int;       (** 0..100 *)
  hot_key_pct : int;     (** hot prefix size as %% of the key space *)
  hot_access_pct : int;  (** %% of accesses that hit the hot prefix *)
}

val uniform_5050 : nkeys:int -> spec
val read_heavy : nkeys:int -> spec
(** 90%% reads, 80/20 skew — a cache-like profile. *)

val write_heavy : nkeys:int -> spec
(** 90%% writes, uniform — the checkpoint-stressing profile used to
    dirty wide working sets. *)

val op_of : spec -> opnum:int -> kind * int * int64
(** Pure: the [opnum]-th operation (kind, key, payload value). The
    write share splits 70% SET / 20% INCR / 10% DEL, the Redis-style
    mutation mix. *)

val is_write : kind -> bool

val page_of_key : int -> int
val offset_of_key : int -> int
val pages_needed : spec -> int
