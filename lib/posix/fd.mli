(** File descriptors and open file descriptions.

    POSIX separates the small-integer descriptor (per-process) from the
    open file description (shared: [dup] aliases it within a process,
    [fork] shares it across processes; the offset and flags live
    there). Aurora checkpoints descriptions as first-class objects so
    that sharing — e.g. a parent and child appending to one log with a
    shared offset — survives restore exactly.

    The [ext_consistency] flag is `sls_fdctl`'s per-descriptor switch:
    when set (the default), output crossing the persistence-group
    boundary is buffered until the covering checkpoint is durable. *)

open Aurora_simtime
open Aurora_vfs

type kind =
  | Vnode_file of { vnode : Vnode.t; mutable append : bool }
  | Obj of int  (** kernel object by oid (pipe end, socket, ...) *)

type flags = {
  mutable cloexec : bool;
  mutable nonblock : bool;
  mutable ext_consistency : bool;
}

type ofd = {
  ofd_oid : int;
  mutable kind : kind;
  mutable offset : int;
  flags : flags;
  mutable refcount : int;
  role : [ `Plain | `Pipe_read | `Pipe_write ];
      (** which end of a pipe this description represents *)
}

val make_ofd : oid:int -> ?role:[ `Plain | `Pipe_read | `Pipe_write ] -> kind -> ofd

type table

val create_table : unit -> table

val install : table -> ofd -> int
(** Lowest-free-descriptor allocation, as POSIX requires. *)

val install_at : table -> int -> ofd -> unit
(** dup2-style placement; implicitly closes (releases) any descriptor
    already there — the caller must have handled that first via
    {!release}. Raises [Invalid_argument] if occupied. *)

val get : table -> int -> ofd option
val descriptors : table -> (int * ofd) list
(** Sorted by descriptor number. *)

val dup : table -> int -> int option
(** New descriptor sharing the same description. *)

val release : table -> int -> [ `Last of ofd | `Shared | `Bad_fd ]
(** Close a descriptor. [`Last] means this was the final reference to
    the description: the caller must release the underlying object
    (close the pipe end, drop the vnode open count, ...). *)

val fork_table : table -> table
(** The child's table: same descriptions, shared (refcounts bumped). *)

val serialize_table : table -> vid_of_vnode:(Vnode.t -> int) -> Serial.writer -> unit
(** Writes (fd -> description oid) plus each distinct description once. *)

val deserialize_table :
  Serial.reader ->
  vnode_of_vid:(int -> Vnode.t) ->
  shared:(int, ofd) Hashtbl.t ->
  table
(** [shared] carries descriptions already restored for other processes
    in the same checkpoint, so cross-process sharing is preserved. *)
