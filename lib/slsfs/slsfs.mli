(** The Aurora file system: a file API into the object store.

    Checkpoints the in-memory file system into an open store
    generation and rebuilds it on restore, handling the edge case §3
    singles out — {e unlinked but open (anonymous) files}. At
    checkpoint time every vnode record carries the number of
    checkpointed open file descriptions referencing it; on restore
    that count becomes the vnode's [persistent_open] pin, so a
    nameless vnode survives until the restored application closes it.

    Zero-copy snapshots and clones fall out of the object store's COW
    generations: {!snapshot} names the current generation (no data
    moves), {!clone_fs} materializes any generation into a fresh file
    system sharing all on-disk blocks. *)

open Aurora_vfs
open Aurora_objstore

val fs_manifest_oid : int
(** The store object id under which the namespace manifest lives. *)

val oid_of_vid : int -> int
(** Store object id for a vnode id (disjoint from kernel-object and
    process id namespaces; see [Aurora_sls.Oidspace]). *)

val checkpoint_fs :
  Store.t -> Memfs.t -> popen_of_vid:(int -> int) -> unit
(** Write the whole file system (namespace manifest, per-vnode records,
    deduplicated data blobs) into the currently open generation.
    [popen_of_vid] reports how many checkpointed descriptions hold each
    vnode open — the on-disk open reference count. *)

val parse_manifest : string -> int * (string * int * Vnode.vtype) list * int list
(** The namespace manifest record (at {!fs_manifest_oid}): the root
    vid, every path with its vid and type, and every live vid. Raises
    [Serial.Corrupt] on a malformed record. *)

val restore_fs : Store.t -> Store.gen -> Memfs.t
(** Rebuild a file system from a generation: directories, files, hard
    links, file contents, and anonymous vnodes (restored nameless,
    pinned by their persistent-open count). *)

val snapshot : Store.t -> name:string -> Store.gen option
(** Name the latest committed generation (zero-copy). [None] when
    nothing has been committed yet. *)

val clone_fs : Store.t -> Store.gen -> Memfs.t
(** A fresh, fully independent file system initialized from the
    generation — the file-system half of container cloning. On-disk
    blocks stay shared; in-memory structures are new. *)
