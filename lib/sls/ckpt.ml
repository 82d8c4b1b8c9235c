open Aurora_simtime
open Aurora_device
open Aurora_vm
open Aurora_posix
open Aurora_proc
open Aurora_vfs
open Aurora_objstore

(* Count, per vnode, the open file descriptions captured by this
   checkpoint — the value of Aurora's on-disk open reference count. *)
let persistent_opens (k : Kernel.t) (g : Types.pgroup) =
  let counts = Hashtbl.create 16 in
  let seen_ofds = Hashtbl.create 32 in
  List.iter
    (fun (p : Process.t) ->
      if Types.member k g p && not (Process.is_zombie p) then
        List.iter
          (fun (_, ofd) ->
            if not (Hashtbl.mem seen_ofds ofd.Fd.ofd_oid) then begin
              Hashtbl.replace seen_ofds ofd.Fd.ofd_oid ();
              match ofd.Fd.kind with
              | Fd.Vnode_file { vnode; _ } ->
                let c =
                  Option.value ~default:0 (Hashtbl.find_opt counts vnode.Vnode.vid)
                in
                Hashtbl.replace counts vnode.Vnode.vid (c + 1)
              | Fd.Obj _ -> ()
            end)
          (Fd.descriptors p.Process.fdtable))
    (Kernel.processes k);
  fun vid -> Option.value ~default:0 (Hashtbl.find_opt counts vid)

(* --- attribution ----------------------------------------------------- *)

(* Simulated page payload: one 4 KiB block per captured page. *)
let page_bytes = 4096

(* Build the who-caused-what view of one capture set. Object rows come
   straight from the arrays the barrier captured, so their page sums
   equal [pages_captured] by construction; process rows partition the
   object rows (each object goes to the lowest-pid member that maps it,
   or to the pid-0 kernel/shared row when nothing does — shm backing
   reachable only through the registry, for instance), so the two views
   sum to the same totals exactly. *)
let attribution (k : Kernel.t) (g : Types.pgroup) ~gen
    (records : Serialize.records) captures =
  let rec_len = Hashtbl.create 64 in
  List.iter
    (fun (oid, r) -> Hashtbl.replace rec_len oid (String.length r))
    records.Serialize.items;
  let len_of oid = Option.value ~default:0 (Hashtbl.find_opt rec_len oid) in
  let procs =
    Kernel.processes k
    |> List.filter (fun p -> Types.member k g p && not (Process.is_zombie p))
    |> List.sort (fun (a : Process.t) b -> Int.compare a.Process.pid b.Process.pid)
  in
  let owner = Hashtbl.create 64 in
  List.iter
    (fun (p : Process.t) ->
      List.iter
        (fun e ->
          if e.Vmmap.persisted then begin
            (* Claim the whole shadow chain: a fork's COW layers belong
               to whichever member saw the chain first (lowest pid). *)
            let rec claim obj =
              if not (Hashtbl.mem owner (Vmobject.oid obj)) then
                Hashtbl.replace owner (Vmobject.oid obj) p.Process.pid;
              Option.iter claim (Vmobject.shadow_of obj)
            in
            claim e.Vmmap.obj
          end)
        (Vmmap.entries p.Process.vm))
    procs;
  let objects =
    List.map2
      (fun (obj, _) (store_oid, (c : Vmobject.capture)) ->
        let npages = Array.length c.Vmobject.pindexes in
        let metadata_bytes = len_of store_oid in
        let cow_breaks = Vmobject.cow_breaks obj in
        Vmobject.reset_cow_breaks obj;
        {
          Types.a_oid = Vmobject.oid obj;
          a_store_oid = store_oid;
          a_pages = npages;
          a_bytes = (npages * page_bytes) + metadata_bytes;
          a_metadata_bytes = metadata_bytes;
          a_cow_breaks = cow_breaks;
          a_chain_depth = Vmobject.chain_depth obj;
          a_owner_pid = Hashtbl.find_opt owner (Vmobject.oid obj);
        })
      records.Serialize.vm_objects captures
  in
  let by_pid = Hashtbl.create 16 in
  let bump pid ~pages ~bytes ~meta ~cow ~objs =
    let p0, b0, m0, c0, o0 =
      Option.value ~default:(0, 0, 0, 0, 0) (Hashtbl.find_opt by_pid pid)
    in
    Hashtbl.replace by_pid pid
      (p0 + pages, b0 + bytes, m0 + meta, c0 + cow, o0 + objs)
  in
  List.iter
    (fun (a : Types.obj_attribution) ->
      bump
        (Option.value ~default:0 a.Types.a_owner_pid)
        ~pages:a.Types.a_pages ~bytes:a.Types.a_bytes
        ~meta:a.Types.a_metadata_bytes ~cow:a.Types.a_cow_breaks ~objs:1)
    objects;
  List.iter
    (fun (p : Process.t) ->
      let len = len_of (Oidspace.proc p.Process.pid) in
      bump p.Process.pid ~pages:0 ~bytes:len ~meta:len ~cow:0 ~objs:0)
    procs;
  (* Whatever metadata is neither an object record nor a process record
     (manifest, kernel objects, fs image) lands on the shared row, so
     the process rows keep summing to the full byte total. *)
  let manifest_len = String.length records.Serialize.manifest in
  let items_bytes =
    List.fold_left (fun acc (_, r) -> acc + String.length r) 0
      records.Serialize.items
  in
  let object_meta =
    List.fold_left (fun acc a -> acc + a.Types.a_metadata_bytes) 0 objects
  in
  let proc_meta =
    List.fold_left
      (fun acc (p : Process.t) -> acc + len_of (Oidspace.proc p.Process.pid))
      0 procs
  in
  let shared_meta = items_bytes + manifest_len - object_meta - proc_meta in
  bump 0 ~pages:0 ~bytes:shared_meta ~meta:shared_meta ~cow:0 ~objs:0;
  let name_of pid =
    if pid = 0 then "(shared)"
    else
      match List.find_opt (fun (p : Process.t) -> p.Process.pid = pid) procs with
      | Some p -> p.Process.name
      | None -> Printf.sprintf "pid%d" pid
  in
  let proc_rows =
    Hashtbl.fold
      (fun pid (pages, bytes, meta, cow, objs) acc ->
        {
          Types.p_pid = pid;
          p_name = name_of pid;
          p_pages = pages;
          p_bytes = bytes;
          p_metadata_bytes = meta;
          p_cow_breaks = cow;
          p_objects = objs;
        }
        :: acc)
      by_pid []
    |> List.sort (fun a b -> Int.compare a.Types.p_pid b.Types.p_pid)
  in
  let pages_total = List.fold_left (fun acc a -> acc + a.Types.a_pages) 0 objects in
  let metadata_total = items_bytes + manifest_len in
  {
    Types.at_gen = gen;
    at_pages_total = pages_total;
    at_bytes_total = (pages_total * page_bytes) + metadata_total;
    at_metadata_bytes_total = metadata_total;
    at_objects = objects;
    at_procs = proc_rows;
  }

let capture (k : Kernel.t) (g : Types.pgroup) ?mode ?name ?flush_cls () =
  let store =
    match Types.primary_store g with
    | Some s -> s
    | None -> invalid_arg "Ckpt.capture: group has no local backend"
  in
  let mode =
    match mode with
    | Some m -> m
    | None -> if g.Types.incremental then `Incremental else `Full
  in
  let clock = k.Kernel.clock in
  let { Obs.spans; metrics; recorder; probes } = k.Kernel.obs in
  let barrier_at = Clock.now clock in
  let root =
    Span.start spans "ckpt"
      ~attrs:
        [ ("pgid", string_of_int g.Types.pgid);
          ("mode", match mode with `Full -> "full" | `Incremental -> "incr") ]
  in

  (* --- barrier: quiesce ---------------------------------------------- *)
  (* Park every member at the barrier before touching its state: IPI +
     run-queue removal per process, a rendezvous share per thread.
     Counted inside the stop window. *)
  let s_quiesce = Span.start spans "ckpt.quiesce" in
  List.iter
    (fun (p : Process.t) ->
      if Types.member k g p && not (Process.is_zombie p) then begin
        Kernel.charge k Costmodel.quiesce_proc;
        Kernel.charge k
          (Duration.scale Costmodel.quiesce_thread (List.length p.Process.threads))
      end)
    (Kernel.processes k);
  let quiesce = Span.finish spans s_quiesce in

  (* --- barrier: metadata copy --------------------------------------- *)
  let s_serialize = Span.start spans "ckpt.serialize" in
  let records = Serialize.snapshot_metadata k g in
  let metadata_copy = records.Serialize.metadata_cost in
  ignore (Span.finish spans s_serialize);

  (* --- barrier: COW arming ("lazy data copy") ------------------------ *)
  let s_cow = Span.start spans "ckpt.cow_mark" in
  let arm_started = Clock.now clock in
  let arm_mode = match mode with `Full -> `Full | `Incremental -> `Dirty_only in
  let captures =
    (* Page index and seed columns go to the store as they are, and the
       stamps are walked once more to release the holds: a busy
       checkpoint captures tens of thousands of pages. *)
    List.map
      (fun (obj, store_oid) ->
        let capture = Vmobject.arm obj ~mode:arm_mode in
        Kernel.charge k (Costmodel.cow_arm ~pages:(Array.length capture.Vmobject.pindexes));
        (store_oid, capture))
      records.Serialize.vm_objects
  in
  let pages_captured =
    List.fold_left (fun acc (_, c) -> acc + Array.length c.Vmobject.pindexes) 0 captures
  in
  let lazy_data_copy = Duration.sub (Clock.now clock) arm_started in
  ignore (Span.finish spans s_cow ~attrs:[ ("pages", string_of_int pages_captured) ]);
  let stop_time = Duration.sub (Clock.now clock) barrier_at in

  (* --- background: flush into the object store ----------------------- *)
  (* The orchestrator core does this work while the application runs;
     it consumes device-queue time but not application CPU time. *)
  let gen = Store.begin_generation store () in
  (* Flight recorder: serialize the telemetry ring into this epoch as a
     store-managed object. The snapshot is taken before this capture's
     own mark is logged, so a recovered ring never describes an epoch
     that was not committed by the time the ring was stored. The copy
     is charged here — off the stop path — and tracked against its own
     budget (the ckpt-rate sweep gates it at <1% of stop time). *)
  let ring_blob = Recorder.export recorder in
  (* Its own child span: the critical-path analyzer measures the
     recorder tax as an antagonist overlapping the epoch window. *)
  let s_rec = Span.start spans "ckpt.recorder" in
  Kernel.charge k
    (Costmodel.page_copy
       ~pages:((String.length ring_blob + page_bytes - 1) / page_bytes));
  Metrics.observe_duration
    (Metrics.histogram metrics "ckpt.recorder_us")
    (Span.finish spans s_rec);
  (* Attribution is barrier-side data (who dirtied what), valid even if
     the flush below degrades; reading it also resets the per-object
     COW-break counters for the next cycle. *)
  let attrib = attribution k g ~gen records captures in
  let attrib =
    (* The ring is checkpoint metadata like the manifest: an explicit
       object row (zero pages) plus the shared process row keep the
       `sls top` byte totals honest about recorder overhead. *)
    let ring_len = String.length ring_blob in
    let recorder_row =
      {
        Types.a_oid = Oidspace.recorder;
        a_store_oid = Oidspace.recorder;
        a_pages = 0;
        a_bytes = ring_len;
        a_metadata_bytes = ring_len;
        a_cow_breaks = 0;
        a_chain_depth = 1;
        a_owner_pid = None;
      }
    in
    let procs =
      List.map
        (fun (p : Types.proc_attribution) ->
          if p.Types.p_pid = 0 then
            { p with
              Types.p_bytes = p.Types.p_bytes + ring_len;
              p_metadata_bytes = p.Types.p_metadata_bytes + ring_len;
              p_objects = p.Types.p_objects + 1 }
          else p)
        attrib.Types.at_procs
    in
    { attrib with
      Types.at_bytes_total = attrib.Types.at_bytes_total + ring_len;
      at_metadata_bytes_total = attrib.Types.at_metadata_bytes_total + ring_len;
      at_objects = attrib.Types.at_objects @ [ recorder_row ];
      at_procs = procs }
  in
  g.Types.last_attribution <- Some attrib;
  (* Name this epoch in the black box BEFORE queueing its writes: the
     box rides a dedicated out-of-band device queue, so it can be
     durable while the epoch flush below is still draining — which is
     the only way a crash that loses the epoch can still find it
     named. An aborted commit retracts the mark (and rewrites the box)
     below. *)
  Recorder.mark_inflight recorder ~gen ~pgid:g.Types.pgid;
  Store.write_blackbox store (Recorder.export_blackbox recorder);
  (* A full or failing device must degrade the checkpoint, not kill
     the machine: abort the open generation (the store rebuilds its
     state from committed generations) and keep serving from the last
     good checkpoint. *)
  let outcome =
    match
      Store.put_record store ~oid:(Oidspace.manifest g.Types.pgid)
        records.Serialize.manifest;
      Store.put_record store ~oid:Oidspace.recorder ring_blob;
      List.iter (fun (oid, record) -> Store.put_record store ~oid record)
        records.Serialize.items;
      List.iter
        (fun (store_oid, (c : Vmobject.capture)) ->
          (* One batched put per object: distinct pages land in a single
             stripe-aware extent, so the device array sees one transfer
             per stripe instead of one command per page. *)
          Store.put_page_columns store ~oid:store_oid ~pindexes:c.Vmobject.pindexes
            ~seeds:c.Vmobject.seeds)
        captures;
      Aurora_slsfs.Slsfs.checkpoint_fs store k.Kernel.fs
        ~popen_of_vid:(persistent_opens k g);
      Store.commit store ?name ?cls:flush_cls ()
    with
    | gen', durable_at ->
      assert (gen = gen');
      (* The capture committed: log it and refresh the black box (the
         pre-commit copy above already names this epoch; this one also
         carries the post-barrier ship/ack horizon). *)
      Recorder.note_capture recorder ~gen ~pgid:g.Types.pgid
        ~stop_us:(Duration.to_us stop_time);
      Store.write_blackbox store (Recorder.export_blackbox recorder);
      Ok durable_at
    | exception Alloc.Out_of_space ->
      Store.abort_generation store;
      Recorder.unmark recorder ~gen;
      Recorder.log recorder
        ~attrs:[ ("gen", string_of_int gen) ]
        ~kind:"ckpt.degraded" "device out of space";
      (* Retract the tentative mark from the on-device box too, so a
         later crash does not report the aborted epoch as pending. *)
      Store.write_blackbox store (Recorder.export_blackbox recorder);
      Error "device out of space"
    | exception Store.Fail e ->
      (* [Store.commit] already rolled the generation back. *)
      Store.abort_generation store;
      Recorder.unmark recorder ~gen;
      Recorder.log recorder
        ~attrs:[ ("gen", string_of_int gen) ]
        ~kind:"ckpt.degraded" (Store.describe_error e);
      Store.write_blackbox store (Recorder.export_blackbox recorder);
      Error (Store.describe_error e)
  in
  let status, durable_at =
    match outcome with
    | Ok durable_at ->
      g.Types.last_gen <- Some gen;
      (`Ok, durable_at)
    | Error reason -> (`Degraded reason, barrier_at)
  in
  ignore
    (Span.finish spans root
       ~attrs:
         [ ("gen", string_of_int gen);
           ("pages", string_of_int pages_captured);
           ("status",
            match status with `Ok -> "ok" | `Degraded r -> "degraded: " ^ r) ]);
  (* Phase histograms and counters. The flush window (barrier end to
     durability) only exists for committed checkpoints. *)
  Metrics.incr (Metrics.counter metrics "ckpt.count");
  Metrics.add (Metrics.counter metrics "ckpt.pages_captured") pages_captured;
  Metrics.add
    (Metrics.counter metrics "ckpt.cow_breaks")
    (List.fold_left
       (fun acc a -> acc + a.Types.a_cow_breaks)
       0 attrib.Types.at_objects);
  Metrics.observe_duration (Metrics.histogram metrics "ckpt.stop_us") stop_time;
  Metrics.observe_duration (Metrics.histogram metrics "ckpt.quiesce_us") quiesce;
  Metrics.observe_duration (Metrics.histogram metrics "ckpt.serialize_us") metadata_copy;
  Metrics.observe_duration (Metrics.histogram metrics "ckpt.cow_mark_us") lazy_data_copy;
  (* The flush window (barrier end to durability) is observed by
     {!finalize} when the generation's writes land — possibly several
     epochs later under pipelining. *)
  (match status with
   | `Ok -> ()
   | `Degraded _ -> Metrics.incr (Metrics.counter metrics "ckpt.degraded"));
  let breakdown =
    {
      Types.gen;
      mode;
      quiesce;
      metadata_copy;
      lazy_data_copy;
      stop_time;
      pages_captured;
      barrier_at;
      durable_at;
      ship = Duration.zero;
      status;
    }
  in
  g.Types.last_breakdown <- Some breakdown;
  if Probe.enabled probes Probe.Ckpt_phase then begin
    let fire op d =
      Probe.fire probes Probe.Ckpt_phase ~dev:"" ~op ~gen
        ~pgid:g.Types.pgid ~us:(Duration.to_us d) ~blocks:pages_captured
    in
    fire "quiesce" quiesce;
    fire "serialize" metadata_copy;
    fire "cow_mark" lazy_data_copy
  end;
  breakdown

(* Completion side of the pipeline: runs when the clock has passed the
   generation's durability instant (the machine retires epochs oldest
   first). Charges the small retire cost off the stop path, closes the
   flush span on its own track and lands the flush/lag histograms. *)
let finalize (k : Kernel.t) (g : Types.pgroup) (b : Types.ckpt_breakdown) =
  match b.Types.status with
  | `Degraded _ -> ()
  | `Ok ->
    let { Obs.metrics; spans; recorder; probes } = k.Kernel.obs in
    Kernel.charge k Costmodel.ckpt_retire;
    Recorder.note_retire recorder ~gen:b.Types.gen;
    let flush_started = Duration.add b.Types.barrier_at b.Types.stop_time in
    (* Background-flush window: end of the stop window to durability. *)
    Metrics.observe_duration
      (Metrics.histogram metrics "ckpt.flush_us")
      (Duration.sub b.Types.durable_at flush_started);
    (* How long the epoch stayed volatile after releasing the app. *)
    Metrics.observe_duration
      (Metrics.histogram metrics "ckpt.durable_lag_us")
      (Duration.sub b.Types.durable_at b.Types.barrier_at);
    Span.record spans ~track:"ckpt.pipeline" ~name:"ckpt.flush"
      ~attrs:
        [ ("pgid", string_of_int g.Types.pgid);
          ("gen", string_of_int b.Types.gen) ]
      ~start_at:flush_started ~end_at:b.Types.durable_at ();
    if Probe.enabled probes Probe.Ckpt_phase then
      Probe.fire probes Probe.Ckpt_phase ~dev:"" ~op:"flush"
        ~gen:b.Types.gen ~pgid:g.Types.pgid
        ~us:(Duration.to_us (Duration.sub b.Types.durable_at flush_started))
        ~blocks:b.Types.pages_captured
