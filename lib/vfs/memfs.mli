(** An in-memory POSIX file system with optional backing device.

    Namespace operations (lookup, create, link, unlink, rename, mkdir)
    over {!Vnode.t}s, plus the durability model that the database
    baselines and the crash tests need:

    - writes hit the page cache (vnode chunks) only;
    - [fsync] pushes a vnode's dirty chunks to the backing device and
      flushes it, charging real device time — this is the cost the
      paper says databases pay today and Aurora's explicit persistence
      primitive avoids;
    - [crash] models power loss for a {e conventional} file system:
      all cache-only state reverts to what reached the device, and
      unlinked-but-open vnodes are reclaimed {e unless} their
      [persistent_open] count is positive (the Aurora file system's
      on-disk open reference count — §3's anonymous-file fix). *)

open Aurora_device

type t

val create : ?backing:Blockdev.t -> unit -> t
(** Without [backing], [fsync] is free and [crash] loses everything
    except Aurora-pinned vnodes (a pure RAM disk). *)

exception Error of string
(** Raised on namespace errors: missing paths, duplicate creation,
    unlink of an open directory, etc. *)

val root : t -> Vnode.t
val lookup : t -> string -> Vnode.t
(** Absolute-path lookup; raises {!Error} if any component is
    missing. *)

val lookup_opt : t -> string -> Vnode.t option
val mkdir : t -> string -> Vnode.t
val create_file : t -> string -> Vnode.t
(** Raises {!Error} if the path already exists. *)

val link : t -> existing:string -> path:string -> unit
val unlink : t -> string -> unit
(** Removes the name; the vnode survives while it has links or open
    descriptions (the anonymous-file state). *)

val rename : t -> src:string -> dst:string -> unit
(** Replaces [dst] if it exists (atomic rename, the crash-consistency
    building block journaling databases rely on). *)

val readdir : t -> string -> string list
(** Sorted entry names. *)

val open_vnode : t -> Vnode.t -> unit
(** Account an open file description. *)

val close_vnode : t -> Vnode.t -> unit
(** Drop an open; reclaims the vnode if it is also unlinked. *)

val fsync : t -> Vnode.t -> unit
(** Write the vnode's dirty chunks to the backing device and flush. *)

val crash : t -> unit
(** Power loss, as described above. The namespace itself is preserved
    only for names that were synced at least once or never touched;
    for simplicity the namespace tree survives but unsynced file
    {e contents} revert and anonymous vnodes are reclaimed. *)

val adopt : t -> Vnode.t -> unit
(** Restore path: register an externally created vnode (possibly
    nameless — an anonymous file) with this file system. For
    directories an empty entry table is created. *)

val attach : t -> path:string -> Vnode.t -> unit
(** Restore path: enter a name for an adopted vnode without touching
    its link count (the checkpointed [nlink] is already correct). *)

val live_vnodes : t -> Vnode.t list
val vnode_by_id : t -> int -> Vnode.t option
val path_of_vid : t -> int -> string option
(** Some linked path for the vnode, if any (for `sls ps`-style
    listings and checkpoint metadata). *)
