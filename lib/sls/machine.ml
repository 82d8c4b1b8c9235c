open Aurora_simtime
open Aurora_device
open Aurora_proc
open Aurora_vfs
open Aurora_objstore

type t = {
  kernel : Kernel.t;
  nvme : Devarray.t;
  memdev : Devarray.t;
  disk_store : Store.t;
  mem_store : Store.t;
  mutable pgroups : Types.pgroup list;
  mutable next_pgid : int;
  extcons : Extconsist.t;
  mutable history_window : int;
  mutable recorded : Types.pgroup list;
  mutable max_inflight_ckpts : int;
  (* Bound on captured-but-not-retired checkpoint epochs. 1 =
     synchronous (every barrier waits for its own flush); k > 1 hides
     up to k-1 flushes under execution. *)
  mutable pending_ckpts : Types.pending_ckpt list;
  (* Committed epochs whose writes are still draining, oldest first.
     Superblock ordering makes their durability times ascending. *)
  mutable sessions : (int * Replica.t) list;
  (* Every replication session with its group's pgid, in attach order:
     the backends beside a primary and the hot standby. *)
  mutable standby : (int * Replica.t) option;
  (* The hot standby's entry of [sessions]. *)
  mutable next_sid : int;
  mutable postmortem : postmortem option;
  (* What the previous incarnation left in flight, computed once at
     boot by diffing the recovered flight recorder and the store's
     black box against the committed prefix. *)
}

and postmortem = {
  pm_crash_reason : string option;
  pm_recovered_gen : Store.gen option;
  pm_bbox_at : Duration.t option;
  pm_pending_epochs : Recorder.capture_mark list;
  pm_unacked_gens : Store.gen list;
  pm_events : Recorder.event list;
}

let clock t = t.kernel.Kernel.clock
let now t = Clock.now (clock t)
let obs t = t.kernel.Kernel.obs
let metrics t = (obs t).Obs.metrics
let spans t = (obs t).Obs.spans
let recorder t = (obs t).Obs.recorder
let postmortem t = t.postmortem

(* Fold the pull-style counters (device/fault/store state kept by each
   layer) into gauges, so one snapshot carries both the push-style
   instrumentation and the layers' own accounting. Registered as a
   [Metrics.on_snapshot] hook at build time, so every export path
   (snapshot, find, to_json) sees fresh values without callers having
   to remember to sync. *)
let sync_metrics t =
  let m = metrics t in
  let set name v = Metrics.set_int (Metrics.gauge m name) v in
  List.iter
    (fun (label, dev) ->
      let st = Devarray.stats dev in
      set ("dev." ^ label ^ ".reads") st.Blockdev.reads;
      set ("dev." ^ label ^ ".writes") st.Blockdev.writes;
      set ("dev." ^ label ^ ".blocks_read_total") st.Blockdev.blocks_read;
      set ("dev." ^ label ^ ".blocks_written_total") st.Blockdev.blocks_written;
      set ("dev." ^ label ^ ".flushes") st.Blockdev.flushes;
      let ss = Devarray.sched_stats dev in
      List.iter
        (fun cls ->
          let i = Iosched.cls_index cls in
          let p = "dev." ^ label ^ ".sched." ^ Iosched.cls_name cls ^ "." in
          set (p ^ "ops") ss.Iosched.s_ops.(i);
          set (p ^ "blocks") ss.Iosched.s_blocks.(i);
          set (p ^ "service_us") (int_of_float ss.Iosched.s_service_us.(i)))
        [ Iosched.Foreground; Iosched.Flush; Iosched.Background;
          Iosched.Deadline ];
      let p = "dev." ^ label ^ ".sched." in
      set (p ^ "fg_gap_fills") ss.Iosched.s_fg_gap_fills;
      set (p ^ "fg_wait_us") (int_of_float ss.Iosched.s_fg_wait_us);
      set (p ^ "gaps_reserved_us") (int_of_float ss.Iosched.s_gaps_reserved_us);
      set (p ^ "gaps_used_us") (int_of_float ss.Iosched.s_gaps_used_us);
      set (p ^ "gaps_expired_us") (int_of_float ss.Iosched.s_gaps_expired_us);
      let f = Devarray.fault_stats dev in
      set ("fault." ^ label ^ ".transient_reads") f.Fault.transient_reads;
      set ("fault." ^ label ^ ".transient_writes") f.Fault.transient_writes;
      set ("fault." ^ label ^ ".latent_reads") f.Fault.latent_reads;
      set ("fault." ^ label ^ ".corruptions") f.Fault.corruptions)
    [ (Devarray.name t.nvme, t.nvme); (Devarray.name t.memdev, t.memdev) ];
  List.iter
    (fun store ->
      let label = Devarray.name (Store.device store) in
      let io = Store.io_stats store in
      set ("store." ^ label ^ ".io.read_retries") io.Store.read_retries;
      set ("store." ^ label ^ ".io.checksum_failures") io.Store.checksum_failures;
      set ("store." ^ label ^ ".io.repaired_from_mirror") io.Store.repaired_from_mirror;
      set ("store." ^ label ^ ".io.repaired_from_dedup") io.Store.repaired_from_dedup;
      set ("store." ^ label ^ ".io.lost_blocks") io.Store.lost_blocks;
      let st = Store.stats store in
      set ("store." ^ label ^ ".live_blocks") st.Store.live_blocks;
      set ("store." ^ label ^ ".generations") st.Store.committed_generations;
      set ("store." ^ label ^ ".dedup.entries") st.Store.dedup_entries;
      set ("store." ^ label ^ ".dedup.hits") st.Store.dedup_hits;
      set ("store." ^ label ^ ".dedup.misses") st.Store.dedup_misses;
      set ("store." ^ label ^ ".dedup.bytes_saved") st.Store.dedup_bytes_saved)
    [ t.disk_store; t.mem_store ];
  (match t.standby with
   | Some (_, repl) ->
     set "repl.lag" (Replica.lag repl);
     let link = Replica.link repl in
     List.iter
       (fun (label, side) ->
         let st = Netlink.stats link ~from_:side in
         set ("repl.link." ^ label ^ ".msgs_sent") st.Netlink.msgs_sent;
         set ("repl.link." ^ label ^ ".msgs_delivered") st.Netlink.msgs_delivered;
         set ("repl.link." ^ label ^ ".dropped") st.Netlink.dropped;
         set ("repl.link." ^ label ^ ".duplicated") st.Netlink.duplicated;
         set ("repl.link." ^ label ^ ".reordered") st.Netlink.reordered;
         set ("repl.link." ^ label ^ ".corrupted") st.Netlink.corrupted;
         set ("repl.link." ^ label ^ ".partition_drops") st.Netlink.partition_drops)
       [ ("tx", (`A : Netlink.side)); ("rx", `B) ]
   | None -> ());
  set "trace.spans_dropped" (Span.dropped (spans t));
  set "trace.span_orphans" (Span.orphan_finishes (spans t));
  set "recorder.capacity" Recorder.capacity;
  set "recorder.occupancy" (Recorder.occupancy (recorder t));
  set "recorder.dropped" (Recorder.dropped (recorder t));
  set "ckpt.inflight_gens"
    (List.length
       (List.filter
          (fun (pc : Types.pending_ckpt) ->
            Duration.(pc.Types.pc_b.Types.durable_at > now t))
          t.pending_ckpts))

let build_on ?(max_inflight_ckpts = 2) ~kernel ~nvme ~memdev ~disk_store
    ~mem_store () =
  (* (Re)bind every layer's instrumentation to this kernel's sinks. On
     [boot] the devices survive from the previous incarnation (possibly
     unmarshaled from a universe file) and must not keep reporting into
     the dead kernel's handles. *)
  let obs = kernel.Kernel.obs in
  Devarray.set_obs nvme (Some obs);
  Devarray.set_obs memdev (Some obs);
  Store.set_obs disk_store (Some obs);
  Store.set_obs mem_store (Some obs);
  let rec t =
    lazy
      {
        kernel; nvme; memdev; disk_store; mem_store; pgroups = [];
        next_pgid = 1;
        extcons =
          Extconsist.install kernel ~groups:(fun () -> (Lazy.force t).pgroups);
        history_window = 8;
        recorded = [];
        max_inflight_ckpts;
        pending_ckpts = [];
        sessions = [];
        standby = None;
        next_sid = 1;
        postmortem = None;
      }
  in
  let m = Lazy.force t in
  (* Gauges derived from layer state refresh on every export. *)
  Metrics.on_snapshot obs.Obs.metrics (fun () -> sync_metrics m);
  m

let create ?(storage_profile = Profile.optane_900p) ?stripes ?capacity_pages
    ?(fs_with_disk = false) ?dedup ?faults ?storage_blocks ?max_inflight_ckpts
    ?io_sched () =
  let kernel0 = Kernel.create ?capacity_pages () in
  let clock = kernel0.Kernel.clock in
  let fs =
    if fs_with_disk then
      Memfs.create ~backing:(Blockdev.create ~clock ~profile:storage_profile "fsdev0") ()
    else Memfs.create ()
  in
  kernel0.Kernel.fs <- fs;
  let nvme =
    Devarray.create ?stripes ?faults ?capacity_blocks:storage_blocks
      ?sched:io_sched ~clock ~profile:storage_profile "nvme"
  in
  let memdev = Devarray.create ~stripes:1 ~clock ~profile:Profile.dram "memdev" in
  let disk_store = Store.format ?dedup ~dev:nvme () in
  let mem_store = Store.format ~dev:memdev () in
  build_on ?max_inflight_ckpts ~kernel:kernel0 ~nvme ~memdev ~disk_store
    ~mem_store ()

(* --- persistence groups --------------------------------------------- *)

let persist_unattached t ?(interval = Duration.milliseconds 10) target =
  let g = Types.make_pgroup ~pgid:t.next_pgid ~target ~interval in
  g.Types.next_ckpt_at <- Duration.add (now t) interval;
  t.next_pgid <- t.next_pgid + 1;
  t.pgroups <- t.pgroups @ [ g ];
  g

let persist t ?interval target =
  let g = persist_unattached t ?interval target in
  g.Types.backends <- [ t.disk_store ];
  g

(* Open a session, numbered by this machine, shipping [g]'s generations
   from [primary] into [store], and add its entry to the ship loop. *)
let add_session t g ?obs ?ack_timeout ?max_attempts ~primary ~link store =
  let repl =
    Replica.establish ?ack_timeout ?max_attempts ?obs ~sid:t.next_sid
      ~pgid:g.Types.pgid ~link ~primary_side:`A ~primary ~standby:store ()
  in
  t.next_sid <- t.next_sid + 1;
  let entry = (g.Types.pgid, repl) in
  t.sessions <- t.sessions @ [ entry ];
  entry

let attach t g store =
  match Types.primary_store g with
  | None -> g.Types.backends <- [ store ]
  | Some primary ->
    g.Types.backends <- g.Types.backends @ [ store ];
    (* A backend beside the primary is a session over a lossless link
       that moves bytes as fast as the backend's own device. *)
    let link =
      Netlink.create ~clock:(clock t) ~profile:(Devarray.profile (Store.device store)) ()
    in
    ignore (add_session t g ~primary ~link store)

let detach t g store =
  g.Types.backends <- List.filter (fun s -> s != store) g.Types.backends;
  t.sessions <-
    List.filter
      (fun (pgid, repl) -> pgid <> g.Types.pgid || Replica.standby_store repl != store)
      t.sessions

(* --- checkpoints ----------------------------------------------------- *)

let gc_history t =
  let keep_named = List.map snd (Store.named t.disk_store) in
  let gens = Store.generations t.disk_store in
  let live =
    List.filteri (fun i _ -> i >= List.length gens - t.history_window) gens
  in
  (* Keep every group's restore anchor alive too. *)
  let anchors = List.filter_map (fun g -> g.Types.last_gen) t.pgroups in
  Store.gc t.disk_store ~keep:(keep_named @ live @ anchors)

(* Retire one epoch whose writes have landed (the clock has reached its
   durability time): finalize spans/histograms, then collect history —
   the generation is durable now, so releasing its predecessors is
   safe. *)
let complete_one t (pc : Types.pending_ckpt) =
  Ckpt.finalize t.kernel pc.Types.pc_group pc.Types.pc_b;
  ignore (gc_history t)

(* Block until the oldest in-flight epoch is durable, then retire it. *)
let retire_oldest t =
  match t.pending_ckpts with
  | [] -> ()
  | pc :: rest ->
    (match Types.primary_store pc.Types.pc_group with
     | Some s -> Store.wait_durable s pc.Types.pc_b.Types.durable_at
     | None -> Clock.advance_to (clock t) pc.Types.pc_b.Types.durable_at);
    t.pending_ckpts <- rest;
    complete_one t pc

(* Retire every epoch the clock has already passed. Oldest first —
   superblock ordering makes durability times ascending, so the prefix
   test terminates at the first still-volatile epoch. *)
let complete_due t =
  let rec loop () =
    match t.pending_ckpts with
    | pc :: rest when Duration.(pc.Types.pc_b.Types.durable_at <= now t) ->
      t.pending_ckpts <- rest;
      complete_one t pc;
      loop ()
    | _ -> ()
  in
  loop ()

(* Drain the whole pipeline: block on each epoch's durability in
   order. *)
let drain_pipeline t =
  while t.pending_ckpts <> [] do
    retire_oldest t
  done

let drain_storage t =
  (* Advance time without scheduling the applications (they would keep
     producing work) until every queued checkpoint epoch and store
     write is durable. Only the stores' own pipelines are awaited —
     unrelated raw device traffic no longer gates this. *)
  drain_pipeline t;
  Store.wait_all_durable t.disk_store;
  Store.wait_all_durable t.mem_store

(* Ship a committed generation through every session of its group, in
   attach order, each as a delta against what it last acknowledged or
   in full. The ships run on the application's clock; their time is the
   breakdown's [ship] and one [ckpt.ship] span on a track of its own. *)
let ship_generation t g (b : Types.ckpt_breakdown) =
  let started = now t in
  List.iter
    (fun (pgid, repl) ->
      if pgid = g.Types.pgid then ignore (Replica.ship repl ~gen:b.Types.gen))
    t.sessions;
  (* Refresh the black box with the hot standby's post-ship ack
     horizon: the copy written at capture predates this ship, and a
     crash from here on should not report an acked generation as
     unacked. *)
  (match (t.standby, Types.primary_store g) with
   | Some (pgid, _), Some s when pgid = g.Types.pgid ->
     Store.write_blackbox s (Recorder.export_blackbox (recorder t))
   | _ -> ());
  Span.record (spans t) ~track:"ckpt.ship" ~name:"ckpt.ship"
    ~attrs:[ ("pgid", string_of_int g.Types.pgid); ("gen", string_of_int b.Types.gen) ]
    ~start_at:started ~end_at:(now t) ();
  b.Types.ship <- Duration.sub (now t) started

let checkpoint_now t g ?mode ?name () =
  (* Retire anything that landed since the last barrier first: keeps
     the history window tight and the in-flight window honest. *)
  complete_due t;
  let window = max 1 t.max_inflight_ckpts in
  (* I/O class of this epoch's flush extents. When the pipeline has
     headroom the flush drains at [Flush] priority so foreground reads
     can overtake it; when this barrier will quiesce on its own epoch
     (window full, or the synchronous engine), the epoch is promoted to
     [Deadline] so durability is not delayed by the pacing gaps. *)
  let flush_cls =
    if window <= 1 || List.length t.pending_ckpts + 1 >= window then
      Iosched.Deadline
    else Iosched.Flush
  in
  let b = Ckpt.capture t.kernel g ?mode ?name ~flush_cls () in
  let backpressure = ref Duration.zero in
  (match b.Types.status with
   | `Degraded _ ->
     (* The generation never committed: nothing to stamp, ship or
        journal-truncate. Still try to reclaim history — freeing old
        generations is exactly what a full device needs. *)
     (try ignore (gc_history t)
      with Aurora_objstore.Alloc.Out_of_space | Store.Fail _ -> ())
   | `Ok ->
     Extconsist.on_checkpoint t.extcons g ~barrier:b.Types.barrier_at
       ~durable_at:b.Types.durable_at;
     (* The checkpoint bounds the record/replay journal. *)
     if List.memq g t.recorded then Rr.on_checkpoint g;
     if List.mem_assoc g.Types.pgid t.sessions then ship_generation t g b;
     (* The epoch joins the pipeline; history collection happens when
        it retires. Backpressure: a barrier may not leave more than
        the window in flight, so block on the oldest epochs until the
        pipeline is back under it. With a window of 1 this is exactly
        the synchronous engine. *)
     t.pending_ckpts <- t.pending_ckpts @ [ { Types.pc_group = g; pc_b = b } ];
     let bp_started = now t in
     while List.length t.pending_ckpts >= window do
       retire_oldest t
     done;
     backpressure := Duration.sub (now t) bp_started;
     (* A non-zero wait leaves a span on the pipeline track: the
        critical-path analyzer charges it as an antagonist of whatever
        epoch it overlaps. *)
     if Duration.(!backpressure > zero) then
       Span.record (spans t) ~track:"ckpt.pipeline" ~name:"ckpt.backpressure"
         ~attrs:[ ("pgid", string_of_int g.Types.pgid) ]
         ~start_at:bp_started ~end_at:(now t) ());
  (* Saturation is visible, not silent: the wait (zero when the
     pipeline had room) is a histogram aligned 1:1 with ckpt.count. *)
  Metrics.observe_duration
    (Metrics.histogram (metrics t) "ckpt.backpressure_us")
    !backpressure;
  b

(* --- the orchestrator loop ------------------------------------------- *)

let next_checkpoint_due t =
  List.fold_left
    (fun acc g ->
      if g.Types.backends = [] then acc
      else
        match acc with
        | None -> Some g.Types.next_ckpt_at
        | Some best -> Some (Duration.min best g.Types.next_ckpt_at))
    None t.pgroups

let fire_due_checkpoints t =
  List.iter
    (fun g ->
      if g.Types.backends <> [] && Duration.(now t >= g.Types.next_ckpt_at) then begin
        ignore (checkpoint_now t g ());
        g.Types.next_ckpt_at <- Duration.add (now t) g.Types.interval
      end)
    t.pgroups

let run t span =
  let deadline = Duration.add (now t) span in
  let rec loop () =
    complete_due t;
    ignore (Extconsist.release_due t.extcons);
    fire_due_checkpoints t;
    if Duration.(now t >= deadline) then ()
    else begin
      let horizon =
        match next_checkpoint_due t with
        | Some at when Duration.(at < deadline) -> at
        | Some _ | None -> deadline
      in
      (* Wake when the oldest in-flight epoch lands, too: retiring it
         promptly keeps the pipeline window open for the next
         barrier. *)
      let horizon =
        match t.pending_ckpts with
        | pc :: _ -> Duration.min horizon pc.Types.pc_b.Types.durable_at
        | [] -> horizon
      in
      (match Scheduler.run t.kernel ~until:horizon with
       | Scheduler.Deadline -> ()
       | Scheduler.Idle | Scheduler.All_exited ->
         (* Nothing to run: time passes to the next event anyway. *)
         Clock.advance_to (clock t) horizon);
      loop ()
    end
  in
  loop ()

let run_until_idle t =
  let rec loop guard =
    if guard = 0 then ()
    else begin
      complete_due t;
      ignore (Extconsist.release_due t.extcons);
      match Scheduler.run_until_idle t.kernel with
      | Scheduler.All_exited | Scheduler.Idle ->
        if Extconsist.pending t.extcons > 0 then begin
          (* Let a checkpoint cover and release the buffered output;
             external consistency needs real durability, so drain the
             pipeline before releasing. *)
          fire_due_checkpoints t;
          List.iter
            (fun g ->
              if g.Types.backends <> [] then ignore (checkpoint_now t g ()))
            t.pgroups;
          drain_pipeline t;
          ignore (Extconsist.release_due t.extcons);
          loop (guard - 1)
        end
      | Scheduler.Deadline -> loop (guard - 1)
    end
  in
  loop 16

(* --- libsls syscall bridge -------------------------------------------- *)

(* Resolve the caller's persistence group and dispatch the Table 2
   operation. *)
let handle_sls_op t ~pid op =
  let group_of_pid () =
    match Kernel.proc t.kernel pid with
    | None -> invalid_arg "sls: unknown caller"
    | Some p -> (
      match List.find_opt (fun g -> Types.member t.kernel g p) t.pgroups with
      | Some g -> g
      | None -> invalid_arg "sls: caller is not in a persistence group")
  in
  match op with
  | Kernel.Sls_ntflush data ->
    (* No GC here: this is the application's low-latency log path; the
       accumulated micro-generations are collected by the next
       checkpoint cycle. *)
    Kernel.Sls_time (Ntlog.flush (group_of_pid ()) data)
  | Kernel.Sls_checkpoint ->
    let b = checkpoint_now t (group_of_pid ()) () in
    Kernel.Sls_time b.Types.durable_at
  | Kernel.Sls_barrier ->
    Ntlog.barrier (group_of_pid ());
    Kernel.Sls_time (now t)
  | Kernel.Sls_log_read -> Kernel.Sls_log (Ntlog.read (group_of_pid ()))
  | Kernel.Sls_log_truncate ->
    Ntlog.truncate (group_of_pid ());
    Kernel.Sls_time (now t)
  | Kernel.Sls_fdctl (fd, ext_consistency) -> (
    let p = Kernel.proc_exn t.kernel pid in
    match Aurora_posix.Fd.get p.Process.fdtable fd with
    | Some ofd ->
      ofd.Aurora_posix.Fd.flags.Aurora_posix.Fd.ext_consistency <- ext_consistency;
      Kernel.Sls_time (now t)
    | None -> invalid_arg (Printf.sprintf "sls_fdctl: bad descriptor %d" fd))
  | Kernel.Sls_mctl (vpn, persist) -> (
    let p = Kernel.proc_exn t.kernel pid in
    match Aurora_vm.Vmmap.entry_at p.Process.vm vpn with
    | Some entry ->
      entry.Aurora_vm.Vmmap.persisted <- persist;
      Kernel.Sls_time (now t)
    | None -> invalid_arg "sls_mctl: vpn not mapped")

let enable_sls_calls t =
  t.kernel.Kernel.sls_ops <- Some (fun ~pid op -> handle_sls_op t ~pid op)

(* --- record/replay ----------------------------------------------------- *)

let enable_recording t g =
  if not (List.memq g t.recorded) then begin
    t.recorded <- g :: t.recorded;
    (* Compose the interposition: external consistency first (it may
       claim outbound bytes), then journal bytes whose receiver is in
       a recorded group. *)
    t.kernel.Kernel.send_hook <-
      Some
        (fun ~src ~ofd ~data ->
          let verdict = Extconsist.handle t.extcons ~src ~ofd ~data in
          (match (verdict, Aurora_posix.Unixsock.state src) with
           | `Deliver, Aurora_posix.Unixsock.Connected { peer } ->
             List.iter
               (fun rg ->
                 match Extconsist.endpoint_owner t.kernel peer with
                 | Some receiver when Types.member t.kernel rg receiver -> (
                   (* Only *boundary* traffic is nondeterministic input:
                      intra-group bytes replay by re-execution. *)
                   match Extconsist.endpoint_owner t.kernel (Aurora_posix.Unixsock.oid src) with
                   | Some sender when Types.member t.kernel rg sender -> ()
                   | Some _ | None -> Rr.record_input rg ~peer_oid:peer data)
                 | Some _ | None -> ())
               t.recorded
           | _ -> ());
          verdict)
  end

(* --- restore / clone -------------------------------------------------- *)

let restore_group t g ?gen ?policy ?from () =
  let store =
    match from with
    | Some s -> s
    | None -> (
      match Types.primary_store g with
      | Some s -> s
      | None -> invalid_arg "Machine.restore_group: no local backend")
  in
  let gen =
    match gen with
    | Some g -> g
    | None -> (
      match Store.latest store with
      | Some g -> g
      | None -> invalid_arg "Machine.restore_group: store has no checkpoints")
  in
  Restore.kill_group t.kernel g;
  Restore.restore t.kernel ~store ~gen ~pgid:g.Types.pgid ?policy ()

let clone_group t g ?gen ?policy () =
  let store =
    match Types.primary_store g with
    | Some s -> s
    | None -> invalid_arg "Machine.clone_group: no local backend"
  in
  let gen =
    match gen with
    | Some g -> g
    | None -> (
      match Store.latest store with
      | Some g -> g
      | None -> invalid_arg "Machine.clone_group: store has no checkpoints")
  in
  Restore.restore t.kernel ~store ~gen ~pgid:g.Types.pgid ?policy ~new_pids:true ()

let rollback_and_replay t g =
  let gen =
    match g.Types.last_gen with
    | Some gen -> gen
    | None -> invalid_arg "rollback_and_replay: group was never checkpointed"
  in
  Restore.kill_group t.kernel g;
  let pids, _ = Restore.restore t.kernel ~store:(Option.get (Types.primary_store g))
      ~gen ~pgid:g.Types.pgid () in
  let replayed = Rr.replay t.kernel g in
  (pids, replayed)

let last_attribution g = g.Types.last_attribution

let ps t =
  List.map
    (fun (p : Process.t) ->
      let state =
        if Process.is_zombie p then "zombie"
        else if List.exists Thread.is_runnable p.Process.threads then "run"
        else "sleep"
      in
      (p.Process.pid, p.Process.name, p.Process.container, state))
    (Kernel.processes t.kernel)

(* --- failure ----------------------------------------------------------- *)

let crash t =
  (* In-flight epochs die with the machine: whatever their writes had
     not reached durably is reverted by the device crash, and recovery
     reopens to the newest durable superblock — a committed prefix. *)
  t.pending_ckpts <- [];
  Devarray.crash t.nvme;
  Devarray.crash t.memdev;
  Memfs.crash t.kernel.Kernel.fs;
  Extconsist.uninstall t.extcons

(* Reconstruct what was in flight when the previous incarnation died:
   import the flight-recorder ring stored with the last durable
   generation, read the store's black box, and diff both against the
   committed prefix. The black box names every recent capture; a mark
   whose generation lies beyond the store's tip belongs to an epoch
   that never became durable — the committed-prefix invariant makes
   generation loss a suffix, so [> tip] is exact (and immune to
   history GC, which only removes generations at or below the tip). *)
let forensics ~kernel ~disk_store =
  let recorder = kernel.Kernel.obs.Obs.recorder in
  let recovered_gen =
    match Store.latest disk_store with
    | Some gen -> (
      match Store.read_record disk_store gen ~oid:Oidspace.recorder with
      | Some blob -> (
        match Recorder.import_into recorder blob with
        | Ok () -> Some gen
        | Error _ -> None)
      | None -> None)
    | None -> None
  in
  let bbox =
    match Store.read_blackbox disk_store with
    | None -> None
    | Some payload -> Result.to_option (Recorder.import_blackbox payload)
  in
  (* Keep the live recorder's black-box state continuous across the
     reboot: the on-device box is one epoch ahead of the stored ring
     (it even names the generation that ring was recovered from). *)
  Option.iter (Recorder.adopt_blackbox recorder) bbox;
  match (recovered_gen, bbox) with
  | None, None -> None
  | _ ->
    let tip = match recovered_gen with Some g -> g | None -> 0 in
    let pending, unacked, bbox_at =
      match bbox with
      | None -> ([], [], None)
      | Some bb ->
        let pending =
          List.filter (fun m -> m.Recorder.cm_gen > tip) bb.Recorder.bb_captures
        in
        let unacked =
          if not bb.Recorder.bb_repl then []
          else
            List.sort_uniq Int.compare
              (List.filter
                 (fun g -> g > bb.Recorder.bb_acked_gen)
                 (bb.Recorder.bb_shipped
                 @ List.map (fun m -> m.Recorder.cm_gen) bb.Recorder.bb_captures))
        in
        (pending, unacked, Some bb.Recorder.bb_at)
    in
    let crash_reason =
      if pending = [] then None
      else begin
        let reason =
          Printf.sprintf "unclean shutdown: %d epoch%s in flight (gen %s)"
            (List.length pending)
            (if List.length pending = 1 then "" else "s")
            (String.concat ", "
               (List.map (fun m -> string_of_int m.Recorder.cm_gen) pending))
        in
        Recorder.set_crash_reason recorder reason;
        Some reason
      end
    in
    Some
      { pm_crash_reason = crash_reason;
        pm_recovered_gen = recovered_gen;
        pm_bbox_at = bbox_at;
        pm_pending_epochs = pending;
        pm_unacked_gens = unacked;
        pm_events = Recorder.events recorder }

let boot ?max_inflight_ckpts ~nvme () =
  (* Boot: a fresh kernel on existing hardware, sharing wall time with
     the device. *)
  match Store.open_ ~dev:nvme with
  | Error e -> Error e
  | Ok disk_store ->
    let kernel = Kernel.create ~clock:(Devarray.clock nvme) () in
    (* The conventional in-memory file system is rebuilt from the last
       durable generation (the SLS file system view of the world) — if a
       checkpoint ever captured one. *)
    (match Store.latest disk_store with
     | Some gen
       when Store.read_record disk_store gen ~oid:Oidspace.fs_manifest_oid <> None ->
       kernel.Kernel.fs <- Aurora_slsfs.Slsfs.restore_fs disk_store gen
     | Some _ | None -> ());
    let pm = forensics ~kernel ~disk_store in
    let memdev =
      Devarray.create ~stripes:1 ~clock:(Devarray.clock nvme) ~profile:Profile.dram
        "memdev"
    in
    let mem_store = Store.format ~dev:memdev () in
    let m =
      build_on ?max_inflight_ckpts ~kernel ~nvme ~memdev ~disk_store ~mem_store
        ()
    in
    m.postmortem <- pm;
    Ok m

let boot_exn ?max_inflight_ckpts ~nvme () =
  match boot ?max_inflight_ckpts ~nvme () with
  | Ok t -> t
  | Error e -> raise (Store.Fail e)

let recover t = boot_exn ~max_inflight_ckpts:t.max_inflight_ckpts ~nvme:t.nvme ()

(* --- replication ------------------------------------------------------- *)

let attach_standby t ?faults ?ack_timeout ?max_attempts ?standby_dev g =
  if t.standby <> None then
    invalid_arg "Machine.attach_standby: a standby is already attached";
  let link = Netlink.create ?faults ~clock:(clock t) ~profile:Profile.net_10gbe () in
  let store =
    match standby_dev with
    | Some dev ->
      (* Re-attach an existing standby (e.g. after the primary
         recovered): the session resumes from the replication state
         the standby's generation table carries. *)
      Store.open_exn ~dev
    | None ->
      let dev =
        Devarray.create ~stripes:1 ~clock:(clock t)
          ~profile:(Devarray.profile t.nvme) "standby"
      in
      Store.format ~dev ()
  in
  let entry =
    add_session t g ?ack_timeout ?max_attempts ~obs:(obs t) ~primary:t.disk_store ~link
      store
  in
  t.standby <- Some entry;
  let repl = snd entry in
  let rec_ = recorder t in
  Recorder.set_repl_attached rec_ true;
  (* A session over an existing standby recovers its ack horizon from
     the standby's durable state; fold it into the recorder so a later
     post-mortem does not re-report those generations as unacked. *)
  (match Replica.acked_gen repl with
   | Some a -> Recorder.seed_repl_horizon rec_ ~acked:a
   | None -> ());
  Recorder.note_transition rec_ ~subsystem:"repl"
    (Printf.sprintf "standby attached (pgroup %d)" g.Types.pgid);
  repl

(* Take the hot standby's session out of the ship loop. *)
let drop_standby t =
  match t.standby with
  | Some entry ->
    t.sessions <- List.filter (fun e -> e != entry) t.sessions;
    t.standby <- None
  | None -> ()

let detach_standby t =
  if t.standby <> None then
    Recorder.note_transition (recorder t) ~subsystem:"repl" "standby detached";
  drop_standby t

type failover_report = {
  fo_rpo : int;
  fo_promoted_gen : Store.gen option;
}

let failover t =
  match t.standby with
  | None -> invalid_arg "Machine.failover: no standby attached"
  | Some (_pgid, repl) ->
    let started = now t in
    (* RPO = committed primary generations the standby never
       acknowledged durable: what this primary loss costs. *)
    let rpo = Replica.lag repl in
    let standby = Replica.standby_store repl in
    let promoted_gen = Option.map snd (Replica.standby_latest repl) in
    (* The generations this failover abandons: committed on the primary,
       never acknowledged durable by the standby. *)
    let unacked_at_failover =
      let gens = Store.generations t.disk_store in
      match Replica.acked_gen repl with
      | None -> gens
      | Some a -> List.filter (fun g -> g > a) gens
    in
    drop_standby t;
    let promoted =
      boot_exn ~max_inflight_ckpts:t.max_inflight_ckpts
        ~nvme:(Store.device standby) ()
    in
    Span.record (spans t) ~track:"repl" ~name:"repl.failover"
      ~attrs:
        [ ("rpo_generations", string_of_int rpo);
          ("promoted_gen",
           match promoted_gen with Some g -> string_of_int g | None -> "-") ]
      ~start_at:started ~end_at:(now t) ();
    (* The promoted machine's recorder (rehydrated from the last shipped
       ring during boot) takes the failover stamp, and its post-mortem
       reports the RPO loss from the primary's point of view — the data
       a standby-side ring alone could never name. *)
    let prec = recorder promoted in
    let reason =
      Printf.sprintf "failover: primary lost, RPO %d generation%s" rpo
        (if rpo = 1 then "" else "s")
    in
    Recorder.set_crash_reason prec reason;
    Recorder.log prec
      ~attrs:
        [ ("rpo_generations", string_of_int rpo);
          ("promoted_gen",
           match promoted_gen with Some g -> string_of_int g | None -> "-") ]
      ~kind:"repl.failover" reason;
    let base =
      match promoted.postmortem with
      | Some pm -> pm
      | None ->
        { pm_crash_reason = None;
          pm_recovered_gen = Store.latest promoted.disk_store;
          pm_bbox_at = None; pm_pending_epochs = []; pm_unacked_gens = [];
          pm_events = [] }
    in
    promoted.postmortem <-
      Some
        { base with
          pm_crash_reason = Some reason;
          pm_unacked_gens = unacked_at_failover;
          pm_events = Recorder.events prec };
    (promoted, { fo_rpo = rpo; fo_promoted_gen = promoted_gen })

(* --- critical path ---------------------------------------------------- *)

let critical_path ?gen t =
  match Critpath.analyze (spans t) ?gen () with
  | Error _ as e -> e
  | Ok r ->
    (* Mirror writes ride inside the commit's own transfers, so the
       span tree cannot attribute them; estimate the tax from
       provenance through the device profile instead. *)
    let r =
      match Store.gen_provenance t.disk_store r.Critpath.cp_gen with
      | Some pv when pv.Store.pv_mirror_blocks > 0 ->
        let us =
          Duration.to_us
            (Profile.transfer_cost (Devarray.profile t.nvme) ~op:`Write
               ~bytes:(pv.Store.pv_mirror_blocks * Blockdev.block_size))
        in
        let ants =
          { Critpath.an_name = "mirror_writes"; an_us = us }
          :: r.Critpath.cp_antagonists
          |> List.sort (fun a b -> Float.compare b.Critpath.an_us a.Critpath.an_us)
        in
        { r with Critpath.cp_antagonists = ants }
      | _ -> r
    in
    Critpath.publish (metrics t) r;
    Ok r
