(** Vnodes: the in-kernel representation of file system objects.

    File data lives in page-sized chunks of real bytes (unlike
    anonymous memory, which is seed-compressed) so that applications —
    write-ahead logs, LSM SSTables — observe genuine byte semantics.

    Two reference counts matter for Aurora:
    - [open_count] is the ordinary in-memory count of open file
      descriptions. A POSIX file system reclaims an unlinked vnode when
      this reaches zero — and therefore loses unlinked-but-open
      ("anonymous") files across a crash.
    - [persistent_open] is Aurora's on-disk open reference count
      (§3: "we solve this by maintaining an on-disk open reference
      count storing the number of persistent virtual file system
      vnodes"), maintained by the SLS file system so restoration can
      resurrect anonymous files. *)

type vtype = Reg | Dir

type t = {
  vid : int;
  vtype : vtype;
  mutable nlink : int;
  mutable open_count : int;
  mutable persistent_open : int;
  mutable size : int;
  chunks : (int, bytes) Hashtbl.t; (* chunk index -> up-to-4096-byte data *)
  dirty : (int, unit) Hashtbl.t;   (* chunks modified since last fsync/flush *)
}

val chunk_size : int

val create : ?vid:int -> vtype -> t
(** Fresh vnode with one link and no data. [vid] forces the identifier
    (restore paths must preserve checkpointed vnode ids); the global
    id counter is reserved past it. *)

val read : t -> off:int -> len:int -> bytes
(** Reads clamp at [size]; holes read as zeroes. Raises
    [Invalid_argument] on negative [off]/[len] or on a directory. *)

val write : t -> off:int -> bytes -> unit
(** Extends the file as needed; marks touched chunks dirty. *)

val append : t -> bytes -> unit
val truncate : t -> int -> unit
(** Shrink or extend to the given size. *)

val dirty_chunks : t -> int list
(** Sorted indexes of chunks modified since the last {!clear_dirty}. *)

val clear_dirty : t -> unit
val equal_data : t -> t -> bool
(** Byte-for-byte comparison of file contents. *)
