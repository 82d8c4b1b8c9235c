(** Processes: the unit of address-space and descriptor ownership. *)

open Aurora_vm
open Aurora_posix

type t = {
  pid : int;
  mutable ppid : int;
  mutable name : string;        (** comm, for `sls ps` listings *)
  mutable container : int;      (** owning container id; 0 = host *)
  mutable threads : Thread.t list;
  vm : Vmmap.t;
  mutable fdtable : Fd.table;
  mutable cwd : string;
  mutable exit_status : int option; (** zombie until reaped *)
  mutable next_tid : int;
}

val create :
  pid:int -> ppid:int -> name:string -> container:int -> vm:Vmmap.t -> program:string -> t
(** One initial runnable thread executing [program]. *)

val main_thread : t -> Thread.t
val thread : t -> int -> Thread.t option
val add_thread : t -> program:string -> Thread.t
val live_threads : t -> Thread.t list
val is_zombie : t -> bool
