open Aurora_simtime
open Aurora_device
open Aurora_vm
open Aurora_posix
open Aurora_proc

type records = {
  manifest : string;
  items : (int * string) list;
  vm_objects : (Vmobject.t * int) list;
  metadata_cost : Duration.t;
}

type manifest_rec = {
  pids : int list;
  target : Types.target;
  group_name : string;
  unix_ns : (string * int) list;
  kobj_oids : int list;
  next_pid : int;
  netstack : string;
}

type vm_entry_rec = {
  start_vpn : int;
  npages : int;
  obj_oid : int;
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
  fd_blob : string;
}

type vmobj_rec = {
  kind : Vmobject.kind;
  shadow_oid : int option;
  hot_pages : int list;
}

(* How many of the hottest pages a checkpoint remembers for
   prefetching at restore (per VM object). Sized to cover a service's
   genuinely hot region at a page-in cost (one batched read) that
   stays well under the full-image eager cost. *)
let hot_set_limit = 1024

(* --- manifest -------------------------------------------------------- *)

let serialize_manifest (m : manifest_rec) =
  let w = Serial.writer () in
  Serial.w_list w Serial.w_int m.pids;
  (match m.target with
   | `Container cid ->
     Serial.w_u8 w 0;
     Serial.w_int w cid
   | `Pids pids ->
     Serial.w_u8 w 1;
     Serial.w_list w Serial.w_int pids);
  Serial.w_string w m.group_name;
  Serial.w_list w (fun w (name, oid) ->
      Serial.w_string w name;
      Serial.w_int w oid)
    m.unix_ns;
  Serial.w_list w Serial.w_int m.kobj_oids;
  Serial.w_int w m.next_pid;
  Serial.w_string w m.netstack;
  Serial.contents w

let parse_manifest data =
  let r = Serial.reader data in
  let pids = Serial.r_list r Serial.r_int in
  let target =
    match Serial.r_u8 r with
    | 0 -> `Container (Serial.r_int r)
    | 1 -> `Pids (Serial.r_list r Serial.r_int)
    | v -> raise (Serial.Corrupt (Printf.sprintf "manifest: bad target tag %d" v))
  in
  let group_name = Serial.r_string r in
  let unix_ns =
    Serial.r_list r (fun r ->
        let name = Serial.r_string r in
        let oid = Serial.r_int r in
        (name, oid))
  in
  let kobj_oids = Serial.r_list r Serial.r_int in
  let next_pid = Serial.r_int r in
  let netstack = Serial.r_string r in
  { pids; target; group_name; unix_ns; kobj_oids; next_pid; netstack }

(* --- vm entries ------------------------------------------------------ *)

let w_vm_entry w (e : Vmmap.entry) =
  Serial.w_int w e.Vmmap.start_vpn;
  Serial.w_int w e.Vmmap.npages;
  Serial.w_int w (Vmobject.oid e.Vmmap.obj);
  Serial.w_int w e.Vmmap.obj_offset;
  Serial.w_bool w e.Vmmap.writable;
  Serial.w_u8 w (match e.Vmmap.inheritance with `Share -> 0 | `Copy -> 1);
  Serial.w_bool w e.Vmmap.needs_copy;
  Serial.w_bool w e.Vmmap.persisted

let r_vm_entry r =
  let start_vpn = Serial.r_int r in
  let npages = Serial.r_int r in
  let obj_oid = Serial.r_int r in
  let obj_offset = Serial.r_int r in
  let writable = Serial.r_bool r in
  let inheritance =
    match Serial.r_u8 r with
    | 0 -> `Share
    | 1 -> `Copy
    | v -> raise (Serial.Corrupt (Printf.sprintf "vm entry: bad inheritance %d" v))
  in
  let needs_copy = Serial.r_bool r in
  let persisted = Serial.r_bool r in
  { start_vpn; npages; obj_oid; obj_offset; writable; inheritance; needs_copy;
    persisted }

(* --- processes ------------------------------------------------------- *)

let serialize_proc (k : Kernel.t) (p : Process.t) =
  let w = Serial.writer () in
  Serial.w_int w p.Process.pid;
  Serial.w_int w p.Process.ppid;
  Serial.w_string w p.Process.name;
  Serial.w_int w p.Process.container;
  Serial.w_string w p.Process.cwd;
  Serial.w_int w p.Process.next_tid;
  Serial.w_list w (fun w th -> Thread.serialize th w) p.Process.threads;
  let persisted_entries =
    List.filter (fun e -> e.Vmmap.persisted) (Vmmap.entries p.Process.vm)
  in
  Serial.w_list w w_vm_entry persisted_entries;
  let fdw = Serial.writer () in
  Fd.serialize_table p.Process.fdtable
    ~vid_of_vnode:(fun v -> v.Aurora_vfs.Vnode.vid)
    fdw;
  Serial.w_string w (Serial.contents fdw);
  ignore k;
  Serial.contents w

let parse_proc data =
  let r = Serial.reader data in
  let pid = Serial.r_int r in
  let ppid = Serial.r_int r in
  let name = Serial.r_string r in
  let container = Serial.r_int r in
  let cwd = Serial.r_string r in
  let next_tid = Serial.r_int r in
  let threads = Serial.r_list r Thread.deserialize in
  let vm_entries = Serial.r_list r r_vm_entry in
  let fd_blob = Serial.r_string r in
  { pid; ppid; name; container; cwd; next_tid; threads; vm_entries; fd_blob }

(* --- vm objects ------------------------------------------------------ *)

let serialize_vmobj obj =
  let w = Serial.writer () in
  Serial.w_int w (Vmobject.oid obj);
  (match Vmobject.kind obj with
   | Vmobject.Anonymous -> Serial.w_u8 w 0
   | Vmobject.Vnode vid ->
     Serial.w_u8 w 1;
     Serial.w_int w vid);
  Serial.w_option w Serial.w_int
    (Option.map Vmobject.oid (Vmobject.shadow_of obj));
  Serial.w_list w Serial.w_int (Vmobject.hot_pages obj ~limit:hot_set_limit);
  Serial.contents w

let parse_vmobj data =
  let r = Serial.reader data in
  (* The object's own oid leads the record; readers know it already. *)
  ignore (Serial.r_int r);
  let kind =
    match Serial.r_u8 r with
    | 0 -> Vmobject.Anonymous
    | 1 -> Vmobject.Vnode (Serial.r_int r)
    | v -> raise (Serial.Corrupt (Printf.sprintf "vmobj: bad kind tag %d" v))
  in
  let shadow_oid = Serial.r_option r Serial.r_int in
  let hot_pages = Serial.r_list r Serial.r_int in
  { kind; shadow_oid; hot_pages }

(* --- the barrier-side walk ------------------------------------------ *)

(* Kernel objects reachable from the group: everything referenced from
   member descriptor tables (following stream peers), plus the named
   IPC objects — shared memory segments, System V queues and
   semaphores are machine-wide names, so they travel with every
   checkpoint. *)
let reachable_kobjs (k : Kernel.t) procs =
  let reg = k.Kernel.registry in
  let seen = Hashtbl.create 32 in
  let out = ref [] in
  let rec add_oid oid =
    if not (Hashtbl.mem seen oid) then begin
      Hashtbl.replace seen oid ();
      match Registry.find reg oid with
      | None -> ()
      | Some kobj ->
        out := kobj :: !out;
        (* Follow stream peers so connected endpoints restore as a
           pair (in-flight data included). *)
        (match kobj with
         | Registry.Kusock s | Registry.Ktcp s -> (
           match Unixsock.state s with
           | Unixsock.Connected { peer } -> add_oid peer
           | Unixsock.Listening { pending; _ } -> List.iter add_oid pending
           | Unixsock.Fresh | Unixsock.Closed -> ())
         | Registry.Kpipe _ | Registry.Kshm _ | Registry.Kmsgq _
         | Registry.Ksem _ | Registry.Kkq _ -> ())
    end
  in
  List.iter
    (fun (p : Process.t) ->
      List.iter
        (fun (_, ofd) ->
          match ofd.Fd.kind with
          | Fd.Obj oid -> add_oid oid
          | Fd.Vnode_file _ -> ())
        (Fd.descriptors p.Process.fdtable))
    procs;
  Registry.fold reg ~init:() ~f:(fun () kobj ->
      match kobj with
      | Registry.Kmsgq _ | Registry.Ksem _ | Registry.Kshm _ ->
        add_oid (Registry.kobj_oid kobj)
      | Registry.Kpipe _ | Registry.Kusock _ | Registry.Ktcp _ | Registry.Kkq _ -> ());
  List.rev !out

let snapshot_metadata (k : Kernel.t) (g : Types.pgroup) =
  let clock = k.Kernel.clock in
  let started = Clock.now clock in
  let procs =
    Kernel.processes k
    |> List.filter (fun p -> Types.member k g p && not (Process.is_zombie p))
  in
  (* Collect the distinct VM objects (whole shadow chains) mapped by
     the group, with persisted entries only. *)
  let vm_seen = Hashtbl.create 64 in
  let vm_objects = ref [] in
  let rec add_chain obj =
    let oid = Vmobject.oid obj in
    if not (Hashtbl.mem vm_seen oid) then begin
      Hashtbl.replace vm_seen oid ();
      vm_objects := (obj, Oidspace.vmobj oid) :: !vm_objects;
      Option.iter add_chain (Vmobject.shadow_of obj)
    end
  in
  List.iter
    (fun (p : Process.t) ->
      List.iter
        (fun e -> if e.Vmmap.persisted then add_chain e.Vmmap.obj)
        (Vmmap.entries p.Process.vm))
    procs;
  (* Kernel objects (computed before emission: shared-memory backing
     objects must join the captured set even when nothing maps them). *)
  let kobjs = reachable_kobjs k procs in
  List.iter
    (fun kobj ->
      match kobj with
      | Registry.Kshm s -> add_chain (Shm.vmobject s)
      | Registry.Kpipe _ | Registry.Kusock _ | Registry.Ktcp _ | Registry.Kmsgq _
      | Registry.Ksem _ | Registry.Kkq _ -> ())
    kobjs;
  let vm_objects = List.rev !vm_objects in
  let items = ref [] in
  let emit oid record = items := (oid, record) :: !items in
  (* Processes: base + threads + vm entries + descriptors. *)
  List.iter
    (fun (p : Process.t) ->
      Kernel.charge k Costmodel.serialize_proc_base;
      Kernel.charge k
        (Duration.scale Costmodel.serialize_thread (List.length p.Process.threads));
      Kernel.charge k
        (Duration.scale Costmodel.serialize_vm_entry
           (List.length (Vmmap.entries p.Process.vm)));
      Kernel.charge k
        (Duration.scale Costmodel.serialize_object
           (List.length (Fd.descriptors p.Process.fdtable)));
      emit (Oidspace.proc p.Process.pid) (serialize_proc k p))
    procs;
  (* VM object metadata (page contents travel separately). *)
  List.iter
    (fun (obj, store_oid) ->
      Kernel.charge k Costmodel.serialize_vmobj;
      emit store_oid (serialize_vmobj obj))
    vm_objects;
  (* Kernel objects. *)
  List.iter
    (fun kobj ->
      Kernel.charge k Costmodel.serialize_object;
      let w = Serial.writer () in
      Registry.serialize_kobj kobj w;
      emit (Oidspace.kobj (Registry.kobj_oid kobj)) (Serial.contents w))
    kobjs;
  (* Manifest: group shape plus the name tables restore must rebuild. *)
  let serialized_kobj_oids = Hashtbl.create 32 in
  List.iter
    (fun kobj -> Hashtbl.replace serialized_kobj_oids (Registry.kobj_oid kobj) ())
    kobjs;
  let unix_ns =
    Hashtbl.fold
      (fun name oid acc ->
        if Hashtbl.mem serialized_kobj_oids oid then (name, oid) :: acc else acc)
      k.Kernel.unix_ns []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let nsw = Serial.writer () in
  Netstack.serialize k.Kernel.netstack nsw;
  let manifest =
    serialize_manifest
      {
        pids = List.map (fun p -> p.Process.pid) procs;
        target = g.Types.target;
        group_name = Printf.sprintf "pgroup-%d" g.Types.pgid;
        unix_ns;
        kobj_oids = List.map Registry.kobj_oid kobjs;
        next_pid = k.Kernel.next_pid;
        netstack = Serial.contents nsw;
      }
  in
  {
    manifest;
    items = List.rev !items;
    vm_objects;
    metadata_cost = Duration.sub (Clock.now clock) started;
  }
