open Aurora_simtime
open Aurora_device
open Aurora_vm
open Aurora_posix
open Aurora_proc
open Aurora_vfs
open Aurora_objstore

(* A restore that cannot proceed is an expected operational failure —
   a mistyped generation, a partially shipped image — not a
   programming error, so it gets a typed error (surfaced by the CLI
   with exit code 2, like store failures) instead of [Failure]. *)
type error =
  | No_manifest of { gen : int; pgid : int }
  | Missing_record of { gen : int; oid : int; what : string }
  | Bad_image of string

exception Error of error

let describe_error = function
  | No_manifest { gen; pgid } ->
    Printf.sprintf "generation %d holds no checkpoint of pgroup %d" gen pgid
  | Missing_record { gen; oid; what } ->
    Printf.sprintf "generation %d is missing the %s record (oid %d)" gen what oid
  | Bad_image msg -> "bad image: " ^ msg

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Restore failure: " ^ describe_error e)
    | _ -> None)

let kill_group (k : Kernel.t) (g : Types.pgroup) =
  (* Zombies included: a crashed member still occupies its pid. *)
  List.iter
    (fun (p : Process.t) ->
      if Types.member k g p then begin
        if not (Process.is_zombie p) then Syscall.exit_process k p 137;
        Kernel.remove_proc k p.Process.pid
      end)
    (Kernel.processes k)

(* Pages of one VM object, restored per policy. Eager paths charge the
   device (real reads); lazy paths peek and leave the device cost to
   the fault. One ordered scan of the object's index range lists its
   pages and their blocks, and every page is then read or peeked by
   block, so no page costs an index descent. *)
let restore_object_pages (k : Kernel.t) store ~gen ~store_oid ~policy ~hot obj =
  let dev = Store.device store in
  let fault_cost =
    Profile.transfer_cost (Devarray.profile dev) ~op:`Read ~bytes:Blockdev.block_size
  in
  let { Store.pindexes; blocks } = Store.page_map store gen ~oid:store_oid in
  let n = Array.length pindexes in
  (* The pages read eagerly, ascending: all, none, or the positions of
     the hot set, found by walking it sorted beside the page indexes. *)
  let eager_pindexes, eager_blocks =
    match policy with
    | Types.Eager -> (pindexes, blocks)
    | Types.Lazy -> ([||], [||])
    | Types.Lazy_prefetch ->
      let rec hot_positions i hot acc =
        match hot with
        | p :: rest when i < n ->
          if pindexes.(i) < p then hot_positions (i + 1) hot acc
          else if pindexes.(i) = p then hot_positions (i + 1) rest (i :: acc)
          else hot_positions i rest acc
        | _ -> Array.of_list (List.rev acc)
      in
      let at = hot_positions 0 (List.sort_uniq Int.compare hot) [] in
      (Array.map (fun i -> pindexes.(i)) at, Array.map (fun i -> blocks.(i)) at)
  in
  let n_eager = Array.length eager_blocks in
  (* Eager pages come in as one batched command (prefetch pays the
     device latency once); lazy pages are mapped as faulting
     references into the image. The device time spent reading is
     returned separately so the breakdown can attribute it to the
     object-store-read phase. *)
  let prefetch_started = Clock.now k.Kernel.clock in
  let seeds, read_time =
    Clock.lap k.Kernel.clock (fun () -> Store.read_page_blocks store eager_blocks)
  in
  if n_eager > 0 then begin
    Span.record k.Kernel.obs.Obs.spans ~name:"restore.prefetch"
      ~attrs:[ ("pages", string_of_int n_eager) ]
      ~start_at:prefetch_started
      ~end_at:(Clock.now k.Kernel.clock) ();
    Metrics.observe_duration
      (Metrics.histogram k.Kernel.obs.Obs.metrics "restore.prefetch_us")
      read_time
  end;
  if n > 0 then Vmobject.reserve obj ~pages:(pindexes.(n - 1) + 1);
  for i = 0 to n_eager - 1 do
    Vmobject.install obj eager_pindexes.(i) (Content.of_seed seeds.(i))
  done;
  let e = ref 0 in
  for i = 0 to n - 1 do
    if !e < n_eager && eager_pindexes.(!e) = pindexes.(i) then incr e
    else
      Vmobject.install_paged_out obj pindexes.(i)
        ~content:(Content.of_seed (Store.peek_page_block store blocks.(i)))
        ~read_cost:fault_cost
  done;
  (* Every installed page is dirty, as a page the application creates
     is: the object is new to this kernel, so its next checkpoint must
     capture the pages, incremental or not. Marked from the top, so the
     dirty set grows to its size once. *)
  for i = n - 1 downto 0 do
    Vmobject.mark_dirty obj pindexes.(i)
  done;
  (n_eager, n - n_eager, read_time)

(* What a restore reads, parsed: the manifest, the processes, the VM
   objects through their shadow chains and the kernel objects. [read]
   has each record's store oid and bytes, [vms] each VM object's oid. *)
type walk = {
  manifest : Serialize.manifest_rec;
  proc_recs : Serialize.proc_rec list;
  vmobj_recs : (int, Serialize.vmobj_rec) Hashtbl.t;
  kobj_recs : (int * string) list;
  vms : int list;
  read : (int * string) list;
}

let walk store ~gen ~pgid =
  let read = ref [] in
  let record oid what =
    match Store.read_record store gen ~oid with
    | Some data ->
      read := (oid, data) :: !read;
      data
    | None when oid = Oidspace.manifest pgid -> raise (Error (No_manifest { gen; pgid }))
    | None -> raise (Error (Missing_record { gen; oid; what }))
  in
  let manifest = Serialize.parse_manifest (record (Oidspace.manifest pgid) "manifest") in
  let proc_recs =
    List.map
      (fun pid -> Serialize.parse_proc (record (Oidspace.proc pid) "process"))
      manifest.Serialize.pids
  in
  let vmobj_recs = Hashtbl.create 32 and vms = ref [] in
  let rec load_vmobj obj_oid =
    if not (Hashtbl.mem vmobj_recs obj_oid) then begin
      let rec_ = Serialize.parse_vmobj (record (Oidspace.vmobj obj_oid) "vm object") in
      Hashtbl.replace vmobj_recs obj_oid rec_;
      vms := obj_oid :: !vms;
      Option.iter load_vmobj rec_.Serialize.shadow_oid
    end
  in
  List.iter
    (fun pr ->
      List.iter
        (fun (e : Serialize.vm_entry_rec) -> load_vmobj e.Serialize.obj_oid)
        pr.Serialize.vm_entries)
    proc_recs;
  let kobj_recs =
    List.map
      (fun oid -> (oid, record (Oidspace.kobj oid) "kernel object"))
      manifest.Serialize.kobj_oids
  in
  { manifest; proc_recs; vmobj_recs; kobj_recs; vms = !vms; read = !read }

let records store ~gen ~pgid =
  let w = walk store ~gen ~pgid in
  (List.rev w.read, List.rev_map Oidspace.vmobj w.vms)

let restore_body (k : Kernel.t) ~store ~gen ~pgid ~policy ?from_disk
    ~new_pids ~root () =
  let clock = k.Kernel.clock in
  let { Obs.spans; metrics; _ } = k.Kernel.obs in
  let started = Clock.now clock in
  let s_meta = Span.start spans "restore.metadata" in
  let dev = Store.device store in
  let from_disk =
    match from_disk with
    | Some b -> b
    | None -> (Devarray.profile dev).Profile.name <> Profile.dram.Profile.name
  in
  let discount d =
    if from_disk then Duration.scale_float d Costmodel.implicit_restore_discount else d
  in

  (* --- phase 1: object store read ----------------------------------- *)
  let { manifest; proc_recs; vmobj_recs; kobj_recs; _ } = walk store ~gen ~pgid in
  let objstore_read = Duration.sub (Clock.now clock) started in

  (* --- phase 2: metadata state --------------------------------------- *)
  let meta_started = Clock.now clock in
  Kernel.charge k (discount Costmodel.restore_orchestrator_base);
  (* Kernel objects first (descriptor tables point at them). Shared
     memory segments are deferred: their backing VM objects are
     recreated by the memory phase, and the segment record must link
     to the real object. *)
  let placeholder_obj _oid ~npages:_ =
    Vmobject.create ~pool:k.Kernel.pool Vmobject.Anonymous
  in
  let deferred_shm = ref [] in
  List.iter
    (fun (oid, data) ->
      Kernel.charge k (discount Costmodel.restore_object);
      let kobj =
        Registry.deserialize_kobj (Serial.reader data) ~restore_obj:placeholder_obj
      in
      match kobj with
      | Registry.Kshm _ -> deferred_shm := (oid, data) :: !deferred_shm
      | _ ->
        Registry.remove k.Kernel.registry oid;
        Registry.register k.Kernel.registry kobj;
        (* Rebind names/ports for listeners. *)
        (match kobj with
         | Registry.Kusock s -> (
           match Unixsock.bound_name s with
           | Some name when Unixsock.state s <> Unixsock.Closed ->
             Hashtbl.replace k.Kernel.unix_ns name (Unixsock.oid s)
           | Some _ | None -> ())
         | Registry.Ktcp s -> (
           match (Unixsock.bound_name s, Unixsock.state s) with
           | Some _, Unixsock.Listening _ -> Netstack.rebind k.Kernel.netstack s
           | _ -> ())
         | Registry.Kpipe _ | Registry.Kshm _ | Registry.Kmsgq _ | Registry.Ksem _
         | Registry.Kkq _ -> ()))
    kobj_recs;

  (* Processes, threads, descriptor tables. *)
  (match manifest.Serialize.target with
   | `Container cid ->
     Kernel.ensure_container k ~cid ~name:manifest.Serialize.group_name
   | `Pids _ -> ());
  let shared_ofds = Hashtbl.create 16 in
  let vnode_of_vid vid =
    match Memfs.vnode_by_id k.Kernel.fs vid with
    | Some v -> v
    | None -> raise (Serial.Corrupt (Printf.sprintf "Restore: no vnode %d" vid))
  in
  let pid_map = Hashtbl.create 8 in
  let restored_procs =
    List.map
      (fun (pr : Serialize.proc_rec) ->
        Kernel.charge k (discount Costmodel.restore_proc_base);
        Kernel.charge k
          (discount
             (Duration.scale Costmodel.restore_thread (List.length pr.Serialize.threads)));
        let pid =
          if new_pids then begin
            let pid = k.Kernel.next_pid in
            k.Kernel.next_pid <- pid + 1;
            pid
          end
          else begin
            if Kernel.proc k pr.Serialize.pid <> None then
              invalid_arg
                (Printf.sprintf "Restore: pid %d already exists" pr.Serialize.pid);
            pr.Serialize.pid
          end
        in
        Hashtbl.replace pid_map pr.Serialize.pid pid;
        (pr, pid))
      proc_recs
  in
  let procs =
    List.map
      (fun ((pr : Serialize.proc_rec), pid) ->
        let vm = Vmmap.create ~clock ~pool:k.Kernel.pool () in
        let ppid =
          Option.value ~default:pr.Serialize.ppid
            (Hashtbl.find_opt pid_map pr.Serialize.ppid)
        in
        let p =
          Process.create ~pid ~ppid ~name:pr.Serialize.name
            ~container:
              (match manifest.Serialize.target with
              | `Container cid -> cid
              | `Pids _ -> pr.Serialize.container)
            ~vm ~program:"(restoring)"
        in
        p.Process.cwd <- pr.Serialize.cwd;
        p.Process.next_tid <- pr.Serialize.next_tid;
        p.Process.threads <- pr.Serialize.threads;
        Kernel.charge k
          (discount
             (Duration.scale Costmodel.restore_object
                (List.length pr.Serialize.vm_entries)));
        let fdt =
          Fd.deserialize_table
            (Serial.reader pr.Serialize.fd_blob)
            ~vnode_of_vid ~shared:shared_ofds
        in
        p.Process.fdtable <- fdt;
        Hashtbl.replace k.Kernel.procs pid p;
        (pr, p))
      restored_procs
  in
  (* Every distinct restored description holding a vnode re-opens it
     (this is what turns the checkpointed persistent-open count back
     into a live open count). *)
  let opened = Hashtbl.create 16 in
  Hashtbl.iter
    (fun ofd_oid (ofd : Fd.ofd) ->
      if not (Hashtbl.mem opened ofd_oid) then begin
        Hashtbl.replace opened ofd_oid ();
        match ofd.Fd.kind with
        | Fd.Vnode_file { vnode; _ } -> Memfs.open_vnode k.Kernel.fs vnode
        | Fd.Obj _ -> ()
      end)
    shared_ofds;
  if not new_pids then
    k.Kernel.next_pid <- max k.Kernel.next_pid manifest.Serialize.next_pid;
  let metadata_state = Duration.sub (Clock.now clock) meta_started in
  let metadata_phase = Span.finish spans s_meta in

  (* --- phase 3: memory state ------------------------------------------ *)
  let s_pagein = Span.start spans "restore.pagein" in
  let mem_started = Clock.now clock in
  let obj_map : (int, Vmobject.t) Hashtbl.t = Hashtbl.create 32 in
  let pages_resident = ref 0 and pages_lazy = ref 0 in
  let prefetch_read = ref Duration.zero in
  let rec materialize obj_oid =
    match Hashtbl.find_opt obj_map obj_oid with
    | Some obj -> obj
    | None ->
      let rec_ : Serialize.vmobj_rec = Hashtbl.find vmobj_recs obj_oid in
      let obj =
        match rec_.Serialize.shadow_oid with
        | None -> Vmobject.create ~pool:k.Kernel.pool rec_.Serialize.kind
        | Some backing_oid ->
          let backing = materialize backing_oid in
          let shadow = Vmobject.make_shadow backing in
          (* make_shadow keeps a reference on the backing for the
             shadow; the map's own working reference is dropped when
             the chain owner (the entry) takes over. *)
          shadow
      in
      Hashtbl.replace obj_map obj_oid obj;
      let r, l, read_time =
        restore_object_pages k store ~gen ~store_oid:(Oidspace.vmobj obj_oid) ~policy
          ~hot:rec_.Serialize.hot_pages obj
      in
      pages_resident := !pages_resident + r;
      pages_lazy := !pages_lazy + l;
      prefetch_read := Duration.add !prefetch_read read_time;
      obj
  in
  List.iter
    (fun ((pr : Serialize.proc_rec), (p : Process.t)) ->
      Kernel.charge k (discount Costmodel.vmspace_create);
      List.iter
        (fun (er : Serialize.vm_entry_rec) ->
          Kernel.charge k (discount Costmodel.restore_vm_entry);
          let obj = materialize er.Serialize.obj_oid in
          let entry =
            Vmmap.map_fixed p.Process.vm ~start_vpn:er.Serialize.start_vpn
              ~inheritance:er.Serialize.inheritance ~writable:er.Serialize.writable ~obj
              ~obj_offset:er.Serialize.obj_offset ~npages:er.Serialize.npages ()
          in
          entry.Vmmap.needs_copy <- er.Serialize.needs_copy;
          entry.Vmmap.persisted <- er.Serialize.persisted)
        pr.Serialize.vm_entries)
    procs;
  (* Mapping recreation cost: batched PTE inserts over every page that
     got a mapping-visible slot (resident or faultable). *)
  Kernel.charge k
    (discount (Costmodel.pte_map ~pages:(!pages_resident + !pages_lazy)));
  (* Drop the creation references: entries now own the objects. *)
  Hashtbl.iter (fun _ obj -> Vmobject.decref obj) obj_map;
  (* Device time spent prefetching pages belongs to the object-store
     read, not to address-space recreation. *)
  let memory_state =
    Duration.sub (Duration.sub (Clock.now clock) mem_started) !prefetch_read
  in
  let objstore_read = Duration.add objstore_read !prefetch_read in

  (* Deferred shared-memory segments: link to the restored backing
     objects (or materialize them if nothing mapped the segment). *)
  let resolve_shm_obj obj_oid ~npages:_ =
    let obj =
      match Hashtbl.find_opt obj_map obj_oid with
      | Some obj -> obj
      | None -> materialize obj_oid
    in
    Vmobject.incref obj;
    obj
  in
  List.iter
    (fun (oid, data) ->
      let kobj =
        Registry.deserialize_kobj (Serial.reader data) ~restore_obj:resolve_shm_obj
      in
      Registry.remove k.Kernel.registry oid;
      Registry.register k.Kernel.registry kobj)
    (List.rev !deferred_shm);

  let pagein_phase =
    Span.finish spans s_pagein
      ~attrs:
        [ ("resident", string_of_int !pages_resident);
          ("lazy", string_of_int !pages_lazy);
          ("objects", string_of_int (Hashtbl.length obj_map)) ]
  in
  let pids = List.map (fun (_, p) -> p.Process.pid) procs |> List.sort Int.compare in
  let total_latency = Duration.sub (Clock.now clock) started in
  ignore
    (Span.finish spans root ~attrs:[ ("procs", string_of_int (List.length procs)) ]);
  Metrics.incr (Metrics.counter metrics "restore.count");
  Metrics.add (Metrics.counter metrics "restore.pages_resident") !pages_resident;
  Metrics.add (Metrics.counter metrics "restore.pages_lazy") !pages_lazy;
  Metrics.add (Metrics.counter metrics "restore.objects") (Hashtbl.length obj_map);
  Metrics.add
    (Metrics.counter metrics "restore.bytes_read")
    (!pages_resident * Blockdev.block_size);
  Metrics.observe_duration (Metrics.histogram metrics "restore.total_us") total_latency;
  Metrics.observe_duration
    (Metrics.histogram metrics "restore.metadata_us")
    metadata_phase;
  Metrics.observe_duration (Metrics.histogram metrics "restore.pagein_us") pagein_phase;
  ( pids,
    {
      Types.objstore_read;
      memory_state;
      metadata_state;
      total_latency;
      pages_restored = !pages_resident;
      pages_lazy = !pages_lazy;
    } )

let restore (k : Kernel.t) ~store ~gen ~pgid ?(policy = Types.Lazy_prefetch) ?from_disk
    ?(new_pids = false) () =
  let spans = k.Kernel.obs.Obs.spans in
  let root =
    Span.start spans "restore"
      ~attrs:[ ("gen", string_of_int gen); ("pgid", string_of_int pgid) ]
  in
  match restore_body k ~store ~gen ~pgid ~policy ?from_disk ~new_pids ~root () with
  | v -> v
  | exception e ->
    (* Close the span (and any open phase under it) so later spans do
       not parent under a dead restore attempt. *)
    ignore (Span.finish spans root ~attrs:[ ("error", Printexc.to_string e) ]);
    raise e

let restore_result (k : Kernel.t) ~store ~gen ~pgid ?policy ?from_disk ?new_pids () =
  match restore k ~store ~gen ~pgid ?policy ?from_disk ?new_pids () with
  | v -> Ok v
  | exception Error e -> Error e
