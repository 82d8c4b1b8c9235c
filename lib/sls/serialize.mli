(** Application serialization: the metadata half of a checkpoint.

    [snapshot_metadata] runs inside the serialization barrier. It walks
    the persistence group — processes, threads, descriptor tables,
    address-space maps, reachable kernel objects, global IPC names —
    and copies everything into in-memory records, charging the
    simulated clock per item (this is Table 3's "metadata copy" row).
    Every shared object is serialized exactly once, keyed by its store
    oid.

    The module also owns the record formats' parsers, used by the
    restore engine and by `sls send`. *)

open Aurora_simtime
open Aurora_vm
open Aurora_proc

type records = {
  manifest : string;
  items : (int * string) list;
      (** (store oid, record), manifest excluded; deterministic order *)
  vm_objects : (Vmobject.t * int) list;
      (** live objects to capture pages from, with their store oids *)
  metadata_cost : Duration.t;  (** clock time charged while copying *)
}

val snapshot_metadata : Kernel.t -> Types.pgroup -> records

(* --- parsed record shapes ------------------------------------------ *)

type manifest_rec = {
  pids : int list;
  target : Types.target;
  group_name : string;
  unix_ns : (string * int) list;
  kobj_oids : int list;     (** registry oids of every serialized kernel object *)
  next_pid : int;
  netstack : string;        (** opaque [Netstack.serialize] payload *)
}

type vm_entry_rec = {
  start_vpn : int;
  npages : int;
  obj_oid : int;            (** the checkpointed [Vmobject.oid] *)
  obj_offset : int;
  writable : bool;
  inheritance : [ `Share | `Copy ];
  needs_copy : bool;
  persisted : bool;
}

type proc_rec = {
  pid : int;
  ppid : int;
  name : string;
  container : int;
  cwd : string;
  next_tid : int;
  threads : Thread.t list;
  vm_entries : vm_entry_rec list;
  fd_blob : string;         (** nested [Fd.serialize_table] payload *)
}

type vmobj_rec = {
  kind : Vmobject.kind;
  shadow_oid : int option;
  hot_pages : int list;     (** for Lazy_prefetch restore *)
}

val parse_manifest : string -> manifest_rec
val parse_proc : string -> proc_rec
val parse_vmobj : string -> vmobj_rec
