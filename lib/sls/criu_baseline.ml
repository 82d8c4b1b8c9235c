open Aurora_simtime
open Aurora_device
open Aurora_vm
open Aurora_proc
open Aurora_objstore

let syscalls_per_object = 3

let checkpoint (k : Kernel.t) (g : Types.pgroup) ?name () =
  let store =
    match Types.primary_store g with
    | Some s -> s
    | None -> invalid_arg "Criu_baseline.checkpoint: group has no local backend"
  in
  let clock = k.Kernel.clock in
  let barrier_at = Clock.now clock in
  (* Metadata: same walk, but every record costs introspection
     syscalls on top of the serialization itself. *)
  let records = Serialize.snapshot_metadata k g in
  let introspection_cost =
    Duration.scale Costmodel.syscall_entry
      (syscalls_per_object * (List.length records.Serialize.items + 1))
  in
  Kernel.charge k introspection_cost;
  let metadata_copy = Duration.add records.Serialize.metadata_cost introspection_cost in
  (* Memory: full copy through the checkpointing process while the
     application is stopped — no COW, no incremental tracking. *)
  let copy_started = Clock.now clock in
  let captures =
    List.map
      (fun (obj, store_oid) ->
        let capture = Vmobject.arm obj ~mode:`Full in
        Kernel.charge k (Costmodel.page_copy ~pages:(Array.length capture.Vmobject.pindexes));
        (store_oid, capture))
      records.Serialize.vm_objects
  in
  let pages_captured =
    List.fold_left (fun acc (_, c) -> acc + Array.length c.Vmobject.pindexes) 0 captures
  in
  let lazy_data_copy = Duration.sub (Clock.now clock) copy_started in
  let stop_time = Duration.sub (Clock.now clock) barrier_at in
  let gen = Store.begin_generation store () in
  Store.put_record store ~oid:(Oidspace.manifest g.Types.pgid) records.Serialize.manifest;
  List.iter (fun (oid, record) -> Store.put_record store ~oid record)
    records.Serialize.items;
  (* Written as a checkpoint writes them: one column put per object. *)
  List.iter
    (fun (store_oid, (c : Vmobject.capture)) ->
      Store.put_page_columns store ~oid:store_oid ~pindexes:c.Vmobject.pindexes
        ~seeds:c.Vmobject.seeds)
    captures;
  Aurora_slsfs.Slsfs.checkpoint_fs store k.Kernel.fs ~popen_of_vid:(fun _ -> 0);
  let gen', durable_at = Store.commit store ?name () in
  assert (gen = gen');
  List.iter (fun (_, c) -> Vmobject.release ~pool:k.Kernel.pool c) captures;
  g.Types.last_gen <- Some gen;
  let breakdown =
    {
      Types.gen;
      mode = `Full;
      (* CRIU has no in-kernel barrier; the ptrace freeze is part of
         the introspection cost already folded into metadata_copy. *)
      quiesce = Duration.zero;
      metadata_copy;
      lazy_data_copy;
      stop_time;
      pages_captured;
      barrier_at;
      durable_at;
      ship = Duration.zero;
      status = `Ok;
    }
  in
  g.Types.last_breakdown <- Some breakdown;
  breakdown
