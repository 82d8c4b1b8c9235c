(** The restore engine.

    Rebuilds a persistence group from a checkpoint generation into a
    kernel — the same kernel (rollback, debugging, serverless
    scale-out) or a freshly booted one (crash recovery, migration).
    The work splits into the phases Table 4 reports:

    - {b object store read}: pulling the manifest and records off the
      backend (free for an in-memory image whose caches are warm;
      real device time for a cold disk image);
    - {b metadata state}: recreating kernel objects, descriptor
      tables, processes and threads, and rebinding names/ports;
    - {b memory state}: recreating address spaces. No page is ever
      copied: an eager restore installs frames sharing the image's
      content, a lazy restore maps pages as faulting references into
      the image, and [Lazy_prefetch] eagerly pages in the
      checkpoint's recorded hot set.

    When the image is read from backing storage, metadata and memory
    recreation get cheaper by [Costmodel.implicit_restore_discount]
    ("reading in the checkpoint implicitly restores some application
    state"). *)

open Aurora_proc
open Aurora_objstore

(** Why a restore could not proceed: the generation holds no
    checkpoint of the group, a record the manifest references is gone
    (a partially shipped or garbage-collected image), or an imported
    image is malformed. Operational failures, not programming errors —
    the CLI reports them and exits 2, like store failures. *)
type error =
  | No_manifest of { gen : int; pgid : int }
  | Missing_record of { gen : int; oid : int; what : string }
  | Bad_image of string

exception Error of error

val describe_error : error -> string

val restore :
  Kernel.t ->
  store:Store.t ->
  gen:Store.gen ->
  pgid:int ->
  ?policy:Types.restore_policy ->
  ?from_disk:bool ->
  ?new_pids:bool ->
  unit ->
  int list * Types.restore_breakdown
(** Returns the restored pids (ascending). [policy] defaults to
    [Lazy_prefetch]. [from_disk] (default: inferred from the store
    device's profile) selects the implicit-restore discount.
    [new_pids] (default false) renumbers the restored processes — the
    serverless scale-out mode, where many instances of one image
    coexist; without it, a pid collision raises [Invalid_argument].
    Raises {!Error} if the generation holds no manifest for [pgid] or
    is missing a record the manifest references. *)

val restore_result :
  Kernel.t ->
  store:Store.t ->
  gen:Store.gen ->
  pgid:int ->
  ?policy:Types.restore_policy ->
  ?from_disk:bool ->
  ?new_pids:bool ->
  unit ->
  (int list * Types.restore_breakdown, error) result
(** {!restore} with the typed failure as a [result] instead of an
    exception. Other exceptions ([Invalid_argument], store failures)
    still propagate. *)

val records : Store.t -> gen:Store.gen -> pgid:int -> (int * string) list * int list
(** The records {!restore} reads of the group's checkpoint, each read
    once, as (store oid, bytes) in the order it reads them: the
    manifest, the processes, the VM objects through their shadow chains
    and the kernel objects. With them, the store oids of the VM objects
    whose pages it restores. Raises {!Error} as {!restore} does. *)

val kill_group : Kernel.t -> Types.pgroup -> unit
(** Terminate and reap every member process (the destructive half of
    rollback). *)
