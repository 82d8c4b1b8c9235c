(* The benchmark harness: regenerates every measurement table in the
   paper's evaluation (§5) plus the extension figures indexed in
   DESIGN.md. Numbers are simulated microseconds produced by the cost
   models — the claim being reproduced is the *shape* of each result
   (who wins, by what factor), not the authors' absolute testbed
   numbers, which are printed alongside for comparison.

   Usage:
     bench/main.exe                       # everything
     bench/main.exe table3 table4         # a subset
     bench/main.exe --json results.json   # also dump metrics as JSON
   Targets: table3 table4 freq-sweep dedup extcons lazy-restore criu
            kv-modes hdd stripe-sweep fault-sweep phase-breakdown
            ckpt-rate repl-sweep critpath qos-sweep *)

open Aurora_simtime
open Aurora_device
open Aurora_vm
open Aurora_proc
open Aurora_objstore
open Aurora_sls
open Aurora_apps

let section title =
  Printf.printf "\n=====================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "=====================================================================\n"

let us d = Duration.to_us d
let row fmt = Printf.printf fmt

(* --- optional JSON results sink (--json <file>) -------------------- *)

(* Each target appends (key, value) pairs under its own name; the
   driver writes one flat two-level object at exit. *)
let json_path : string option ref = ref None
let json_acc : (string * (string * Json.t) list ref) list ref = ref []

let json_record target kvs =
  if !json_path <> None then begin
    let bucket =
      match List.assoc_opt target !json_acc with
      | Some b -> b
      | None ->
        let b = ref [] in
        json_acc := !json_acc @ [ (target, b) ];
        b
    in
    bucket := !bucket @ kvs
  end

let jnum = Json.fixed 3
let jint v = Json.Int v

(* Summarize one histogram from a metrics registry into the target's
   JSON bucket as <key>_count / <key>_mean_us / <key>_p50_us /
   <key>_p99_us plus <key>_buckets — the per-bucket counts, so the
   regression gate can compare distribution shape, not just two
   scalars. Silent when the histogram is absent or empty. *)
let json_hist m target ~key name =
  match Metrics.find m name with
  | Some (Metrics.Histogram { count; bounds; counts; _ }) when count > 0 ->
    let h = Metrics.histogram m name in
    let bucket i =
      Json.Obj
        [ ("le", if i < Array.length bounds then jnum bounds.(i) else String "+inf");
          ("count", Int counts.(i)) ]
    in
    json_record target
      [
        (key ^ "_count", jint count);
        (key ^ "_mean_us", jnum (Metrics.hist_mean h));
        (key ^ "_p50_us", jnum (Metrics.quantile h 0.5));
        (key ^ "_p99_us", jnum (Metrics.quantile h 0.99));
        (key ^ "_buckets", List (List.init (Array.length counts) bucket));
      ]
  | _ -> ()

let json_write () =
  match !json_path with
  | None -> ()
  | Some path ->
    let doc = Json.Obj (List.map (fun (target, kvs) -> (target, Json.Obj !kvs)) !json_acc) in
    (* Write-then-rename so a crash (or a concurrent reader — CI tails
       the file while the bench runs) never sees a truncated document. *)
    let tmp = path ^ ".tmp" in
    (match open_out tmp with
     | oc ->
       output_string oc (Json.to_string doc ^ "\n");
       close_out oc;
       Sys.rename tmp path;
       Printf.printf "\n[json results written to %s]\n" path
     | exception Sys_error msg ->
       Printf.eprintf "cannot write json results: %s\n" msg;
       exit 2)

(* ------------------------------------------------------------------ *)
(* Shared fixtures                                                     *)
(* ------------------------------------------------------------------ *)

(* A Redis-scale instance: [gib] gibibytes of resident working set,
   preloaded. Returns (machine, container id, process, config). *)
let redis_fixture ?(profile = Profile.optane_900p) ?stripes ?max_inflight
    ?io_sched ?dedup ~mib () =
  let m =
    Machine.create ~storage_profile:profile ?stripes
      ?max_inflight_ckpts:max_inflight ?io_sched ?dedup ()
  in
  let k = m.Machine.kernel in
  let c = Kernel.new_container k ~name:"redis" in
  let nkeys = mib * 1024 * 1024 / 8 in
  let cfg =
    { (Kvstore.default_config ~nkeys ()) with
      Kvstore.spec = Workload.write_heavy ~nkeys;
      ops_per_step = 128;
      preload = true }
  in
  let p = Kvstore.spawn k ~container:c.Container.cid cfg in
  (* A realistic Redis process layout: beyond the data region, the
     address space holds ~70 mappings (shared libraries, jemalloc
     arenas, thread stacks), ~30 open descriptors, and four threads
     (Redis' main thread plus bio/io workers). These do not affect the
     data path but are what the metadata-copy row measures. *)
  for i = 0 to 69 do
    ignore (Syscall.mmap_anon k p ~npages:(1 + (i mod 4)))
  done;
  Syscall.mkdir k p "/lib";
  for i = 0 to 29 do
    ignore (Syscall.open_file k p ~create:true (Printf.sprintf "/lib/lib%d.so" i))
  done;
  for _ = 1 to 3 do
    ignore (Process.add_thread p ~program:"aurora/kv-client")
  done;
  (* One step executes the whole preload. *)
  ignore (Scheduler.step_all k);
  (m, c, p, cfg)

let dirty_pages (p : Process.t) =
  List.fold_left (fun acc obj -> acc + Vmobject.dirty_count obj) 0
    (Vmmap.distinct_objects p.Process.vm)

(* Run the workload until roughly [target] pages are dirty (or the
   step budget runs out). *)
let dirty_until m p ~target =
  let k = m.Machine.kernel in
  let guard = ref 0 in
  while dirty_pages p < target && !guard < 400_000 do
    ignore (Scheduler.step_all k);
    incr guard
  done

(* A hello-world serverless function, initialized. *)
let serverless_fixture ?(profile = Profile.optane_900p) () =
  let m = Machine.create ~storage_profile:profile () in
  let k = m.Machine.kernel in
  let c = Kernel.new_container k ~name:"func" in
  let inst = Serverless.spawn k ~container:c.Container.cid (Serverless.default_config ()) in
  ignore (Scheduler.run_until_idle k);
  assert (Serverless.initialized inst.Serverless.func);
  (m, c, inst)

(* ------------------------------------------------------------------ *)
(* Table 3: checkpoint stop-time breakdown                             *)
(* ------------------------------------------------------------------ *)

let table3 () =
  section
    "Table 3: stop time breakdown, checkpointing Redis (2 GiB working set)";
  let m, c, p, _cfg = redis_fixture ~mib:2048 () in
  let g = Machine.persist m (`Container c.Container.cid) in
  (* Warm one full checkpoint so 'full' below is steady-state, then
     dirty ~14% of the working set (the paper's incremental delta)
     before each measured checkpoint. *)
  let resident = Vmmap.resident_pages p.Process.vm in
  Printf.printf "resident working set: %d pages (%.1f GiB)\n" resident
    (float_of_int resident *. 4096. /. 1024. /. 1024. /. 1024.);
  let target_dirty = resident * 14 / 100 in
  dirty_until m p ~target:target_dirty;
  let full = Machine.checkpoint_now m g ~mode:`Full () in
  dirty_until m p ~target:target_dirty;
  let incr = Machine.checkpoint_now m g ~mode:`Incremental () in
  row "\n%-28s %14s %14s      (paper: full / incremental)\n" "Checkpoint" "Full" "Incremental";
  row "%-28s %11.1fus %11.1fus      (267.9 / 239.7)\n" "Metadata copy"
    (us full.Types.metadata_copy) (us incr.Types.metadata_copy);
  row "%-28s %11.1fus %11.1fus      (5145.9 / 711.1)\n" "Lazy data copy"
    (us full.Types.lazy_data_copy) (us incr.Types.lazy_data_copy);
  row "%-28s %11.1fus %11.1fus      (5413.8 / 950.8)\n" "Application stop time"
    (us full.Types.stop_time) (us incr.Types.stop_time);
  row "%-28s %11d   %11d\n" "Pages captured" full.Types.pages_captured
    incr.Types.pages_captured;
  let copy_ratio = Duration.ratio full.Types.lazy_data_copy incr.Types.lazy_data_copy in
  json_record "table3"
    [
      ("full_metadata_copy_us", jnum (us full.Types.metadata_copy));
      ("incr_metadata_copy_us", jnum (us incr.Types.metadata_copy));
      ("full_lazy_data_copy_us", jnum (us full.Types.lazy_data_copy));
      ("incr_lazy_data_copy_us", jnum (us incr.Types.lazy_data_copy));
      ("full_stop_us", jnum (us full.Types.stop_time));
      ("incr_stop_us", jnum (us incr.Types.stop_time));
      ("full_flush_us", jnum (us (Duration.sub full.Types.durable_at full.Types.barrier_at)));
      ("incr_flush_us", jnum (us (Duration.sub incr.Types.durable_at incr.Types.barrier_at)));
      ("full_pages", jint full.Types.pages_captured);
      ("incr_pages", jint incr.Types.pages_captured);
      ("data_copy_ratio", jnum copy_ratio);
    ];
  row "\nfull/incremental data-copy ratio: %.1fx (paper: 7.2x)\n" copy_ratio;
  row "incremental stop time below 1 ms: %b (paper: yes)\n"
    Duration.(incr.Types.stop_time < Duration.milliseconds 1)

(* ------------------------------------------------------------------ *)
(* Table 4: restore-time breakdown                                     *)
(* ------------------------------------------------------------------ *)

let table4_redis_memory () =
  (* Checkpoint the 2 GiB instance to the in-memory object store; kill
     it; restore from memory. *)
  let m, c, _p, _cfg = redis_fixture ~mib:2048 () in
  let g = Machine.persist_unattached m (`Container c.Container.cid) in
  Machine.attach m g m.Machine.mem_store;
  let b = Machine.checkpoint_now m g () in
  Store.wait_durable m.Machine.mem_store b.Types.durable_at;
  let _, breakdown = Machine.restore_group m g ~policy:Types.Lazy () in
  breakdown

let table4_serverless ~from_disk () =
  let m, c, _inst = serverless_fixture () in
  let store = if from_disk then m.Machine.disk_store else m.Machine.mem_store in
  let g = Machine.persist_unattached m (`Container c.Container.cid) in
  Machine.attach m g store;
  let b = Machine.checkpoint_now m g () in
  Store.wait_durable store b.Types.durable_at;
  if from_disk then Store.drop_caches store;
  let policy = if from_disk then Types.Lazy_prefetch else Types.Lazy in
  let _, breakdown = Machine.restore_group m g ~policy () in
  breakdown

let table4 () =
  section "Table 4: restore time breakdown";
  let r = table4_redis_memory () in
  let sm = table4_serverless ~from_disk:false () in
  let sd = table4_serverless ~from_disk:true () in
  row "\n%-22s %12s %12s %12s\n" "Restore" "Redis" "Serverless" "Serverless";
  row "%-22s %12s %12s %12s\n" "Backend" "Memory" "Memory" "Disk";
  let cell d = Printf.sprintf "%.1f" (us d) in
  row "%-22s %12s %12s %12s   (paper: N/A / N/A / 322.7)\n" "Object store read (us)"
    "N/A" "N/A" (cell sd.Types.objstore_read);
  row "%-22s %12s %12s %12s   (paper: 494.4 / 144.6 / 122.6)\n" "Memory state (us)"
    (cell r.Types.memory_state) (cell sm.Types.memory_state) (cell sd.Types.memory_state);
  row "%-22s %12s %12s %12s   (paper: 261.1 / 240.4 / 206.9)\n" "Metadata state (us)"
    (cell r.Types.metadata_state) (cell sm.Types.metadata_state)
    (cell sd.Types.metadata_state);
  row "%-22s %12s %12s %12s   (paper: 755.5 / 454.4 / 652.2)\n" "Total latency (us)"
    (cell r.Types.total_latency) (cell sm.Types.total_latency)
    (cell sd.Types.total_latency);
  json_record "table4"
    [
      ("redis_memory_total_us", jnum (us r.Types.total_latency));
      ("serverless_memory_total_us", jnum (us sm.Types.total_latency));
      ("serverless_disk_total_us", jnum (us sd.Types.total_latency));
      ("serverless_disk_objstore_read_us", jnum (us sd.Types.objstore_read));
      ("redis_memory_pages_restored", jint r.Types.pages_restored);
    ];
  row "\nall restores sub-millisecond: %b (paper: yes)\n"
    (List.for_all
       (fun b -> Duration.(b.Types.total_latency < Duration.milliseconds 1))
       [ r; sm; sd ])

(* ------------------------------------------------------------------ *)
(* F-freq: checkpoint frequency sweep                                  *)
(* ------------------------------------------------------------------ *)

let freq_sweep () =
  section "F-freq: checkpoint frequency sweep (64 MiB kvstore under write load)";
  row "%10s %14s %16s %14s %12s\n" "interval" "checkpoints" "mean stop (us)"
    "overhead %" "flushed MiB/s";
  List.iter
    (fun interval_ms ->
      let m, c, _p, _cfg = redis_fixture ~mib:64 () in
      ignore
        (Machine.persist m
           ~interval:(Duration.milliseconds interval_ms)
           (`Container c.Container.cid));
      let span = Duration.milliseconds 400 in
      let started = Machine.now m in
      Machine.run m span;
      let elapsed = Duration.sub (Machine.now m) started in
      (* One group per machine, so the machine's histogram holds exactly
         this group's stop times. *)
      let stops = Metrics.histogram (Machine.metrics m) "ckpt.stop_us" in
      let total_stop = Metrics.hist_sum stops (* us *) in
      let written =
        (Devarray.stats m.Machine.nvme).Blockdev.blocks_written * 4096
      in
      json_record "freq-sweep"
        [
          (Printf.sprintf "interval_%dms_checkpoints" interval_ms,
           jint (Metrics.hist_count stops));
          (Printf.sprintf "interval_%dms_mean_stop_us" interval_ms,
           jnum (Metrics.hist_mean stops));
        ];
      row "%8dms %14d %16.1f %13.2f%% %12.1f\n" interval_ms
        (Metrics.hist_count stops) (Metrics.hist_mean stops)
        (total_stop /. (Duration.to_us elapsed /. 100.))
        (float_of_int written /. 1024. /. 1024.
        /. Duration.to_sec elapsed))
    [ 100; 50; 20; 10; 5; 2 ];
  row "\n(paper: 'up to 100x per second with modest overhead')\n"

(* ------------------------------------------------------------------ *)
(* F-dedup: serverless image density                                   *)
(* ------------------------------------------------------------------ *)

let dedup_run ~enabled =
  let m = Machine.create ~dedup:enabled () in
  let k = m.Machine.kernel in
  let checkpointed = ref 0 in
  List.map
    (fun target ->
      while !checkpointed < target do
        let fid = !checkpointed in
        let c = Kernel.new_container k ~name:(Printf.sprintf "fn%d" fid) in
        let inst =
          Serverless.spawn k ~container:c.Container.cid
            (Serverless.default_config ~func_id:fid ())
        in
        ignore inst;
        ignore (Scheduler.run_until_idle k);
        let g = Machine.persist m (`Container c.Container.cid) in
        ignore (Machine.checkpoint_now m g ());
        incr checkpointed
      done;
      (target, (Store.stats m.Machine.disk_store).Store.live_blocks))
    [ 1; 2; 4; 8; 16; 32; 64 ]

let dedup () =
  section "F-dedup: object-store density across serverless functions";
  let with_dedup = dedup_run ~enabled:true in
  let without = dedup_run ~enabled:false in
  row "%10s %14s %16s %18s %16s\n" "functions" "store blocks" "blocks/instance"
    "no-dedup blocks" "savings";
  List.iter2
    (fun (target, blocks) (_, blocks_off) ->
      row "%10d %14d %16.1f %18d %15.1fx\n" target blocks
        (float_of_int blocks /. float_of_int target)
        blocks_off
        (float_of_int blocks_off /. float_of_int blocks))
    with_dedup without;
  row "\n(each function is 'a small delta over the runtime container\'s checkpoint';\n";
  row " the no-dedup ablation stores every page verbatim)\n"

(* ------------------------------------------------------------------ *)
(* ------------------------------------------------------------------ *)
(* F-extcons: external consistency latency                             *)
(* ------------------------------------------------------------------ *)

let extcons_one ~interval_ms ~ext =
  let m = Machine.create () in
  let k = m.Machine.kernel in
  let c = Kernel.new_container k ~name:"srv" in
  let cfg = Kvstore.default_config ~nkeys:65536 () in
  let server, client, fd =
    Kvstore.spawn_server_pair k ~container:c.Container.cid cfg
  in
  let sfd = 0 (* server's first descriptor is its socket *) in
  ignore (Machine.persist m ~interval:(Duration.milliseconds interval_ms)
            (`Container c.Container.cid));
  if not ext then Api.sls_fdctl server ~fd:sfd ~ext_consistency:false;
  (* Warm up. *)
  Machine.run m (Duration.milliseconds 1);
  let lat = Stats.create () in
  for i = 1 to 30 do
    let t0 = Machine.now m in
    Kvstore.client_request k client ~fd ~opnum:i;
    let guard = ref 0 in
    let got = ref false in
    while (not !got) && !guard < 10_000 do
      Machine.run m (Duration.microseconds 100);
      (match Kvstore.client_reply k client ~fd with
       | Some _ -> got := true
       | None -> ());
      incr guard
    done;
    if !got then Stats.add_duration lat (Duration.sub (Machine.now m) t0)
  done;
  lat

let extcons () =
  section "F-extcons: client-observed latency, external consistency on vs off";
  row "%12s %22s %22s\n" "ckpt every" "ext-consistency ON" "ext-consistency OFF";
  List.iter
    (fun interval_ms ->
      let on = extcons_one ~interval_ms ~ext:true in
      let off = extcons_one ~interval_ms ~ext:false in
      row "%10dms %18.1fus %18.1fus\n" interval_ms (Stats.mean on) (Stats.mean off))
    [ 20; 10; 5; 2 ];
  row "\n(output is held until the covering checkpoint is durable; sls_fdctl\n";
  row " trades that safety for latency - Section 3.2)\n"

(* ------------------------------------------------------------------ *)
(* F-lazy: restore policies                                            *)
(* ------------------------------------------------------------------ *)

let lazy_restore () =
  section "F-lazy: restore policy (256 MiB kvstore image on NVMe)";
  row "%16s %16s %14s %18s\n" "policy" "restore (us)" "resident" "post-restore majors";
  (* The service has a concentrated hot region (1% of the key space,
     95% of accesses) that the pre-checkpoint traffic heats; the
     checkpoint records its hot set; the post-restore trace revisits
     the same region. *)
  let hot_spec nkeys =
    { (Workload.read_heavy ~nkeys) with Workload.hot_key_pct = 1; hot_access_pct = 95 }
  in
  let burst k p ~spec ~n =
    let base = Kvstore.base_vpn p in
    for opnum = 0 to n - 1 do
      let _, key, _ = Workload.op_of spec ~opnum in
      ignore
        (Syscall.mem_read k p ~vpn:(base + Workload.page_of_key key)
           ~offset:(Workload.offset_of_key key))
    done
  in
  List.iter
    (fun (label, key, policy) ->
      let m, c, p, cfg = redis_fixture ~mib:256 () in
      let k = m.Machine.kernel in
      let g = Machine.persist m (`Container c.Container.cid) in
      let spec = hot_spec cfg.Kvstore.spec.Workload.nkeys in
      burst k p ~spec ~n:4_000;
      let b = Machine.checkpoint_now m g () in
      Store.wait_durable m.Machine.disk_store b.Types.durable_at;
      Store.drop_caches m.Machine.disk_store;
      let pids, breakdown = Machine.restore_group m g ~policy () in
      let p' = Kernel.proc_exn m.Machine.kernel (List.hd pids) in
      burst k p' ~spec ~n:2_000;
      let majors = (Vmmap.faults p'.Process.vm).Vmmap.major in
      row "%16s %16.1f %14d %18d\n" label
        (us breakdown.Types.total_latency)
        breakdown.Types.pages_restored majors;
      json_record "lazy-restore"
        [
          (key ^ "_restore_us", jnum (us breakdown.Types.total_latency));
          (key ^ "_resident_pages", jint breakdown.Types.pages_restored);
          (key ^ "_post_restore_majors", jint majors);
        ])
    [ ("eager", "eager", Types.Eager); ("lazy", "lazy", Types.Lazy);
      ("lazy+prefetch", "lazy_prefetch", Types.Lazy_prefetch) ];
  row "\n(lazy restores start fastest; the clock-algorithm hot set removes most\n";
  row " of the post-restore faults - Section 3)\n"

(* ------------------------------------------------------------------ *)
(* ------------------------------------------------------------------ *)
(* F-baseline: Aurora vs CRIU-style                                    *)
(* ------------------------------------------------------------------ *)

let criu () =
  section "F-baseline: stop time, Aurora vs syscall-boundary (CRIU-style)";
  row "%10s %16s %16s %16s\n" "image" "aurora full" "aurora incr" "criu-style";
  List.iter
    (fun mib ->
      let m, c, p, _ = redis_fixture ~mib () in
      let g = Machine.persist m (`Container c.Container.cid) in
      let resident = Vmmap.resident_pages p.Process.vm in
      let full = Machine.checkpoint_now m g ~mode:`Full () in
      dirty_until m p ~target:(resident / 10);
      let incr = Machine.checkpoint_now m g ~mode:`Incremental () in
      dirty_until m p ~target:(resident / 10);
      let criu_b = Criu_baseline.checkpoint m.Machine.kernel g () in
      row "%7dMiB %14.1fus %14.1fus %14.1fus\n" mib (us full.Types.stop_time)
        (us incr.Types.stop_time) (us criu_b.Types.stop_time))
    [ 16; 64; 256 ];
  row "\n(CRIU 'pieces together application state by querying the kernel'; its\n";
  row " overheads 'are prohibitive for transparent persistence' - Section 2)\n"

(* ------------------------------------------------------------------ *)
(* F-redis-port: persistence modes                                     *)
(* ------------------------------------------------------------------ *)

let kv_modes () =
  section "F-redis-port: kvstore persistence modes (16 MiB store, 3000 ops)";
  row "%14s %14s %14s %16s\n" "mode" "us/op" "p99 us/op" "recovery";
  let result_for label mode =
    let m = Machine.create ~fs_with_disk:true () in
    Machine.enable_sls_calls m;
    let k = m.Machine.kernel in
    let c = Kernel.new_container k ~name:"kv" in
    let nkeys = 16 * 1024 * 1024 / 8 in
    let cfg =
      { (Kvstore.default_config ~mode ~nkeys ()) with
        Kvstore.ops_per_step = 1; snapshot_every = 1_000; fsync_every = 1 }
    in
    let p = Kvstore.spawn k ~container:c.Container.cid cfg in
    let g =
      if mode = Kvstore.Aurora then Some (Machine.persist m (`Container c.Container.cid))
      else None
    in
    ignore g;
    ignore (Scheduler.step_all k) (* setup *);
    let per_op = Stats.create () in
    while Kvstore.ops_done p < 3_000 do
      let t0 = Machine.now m in
      ignore (Scheduler.step_all k);
      Stats.add_duration per_op (Duration.sub (Machine.now m) t0)
    done;
    (* Recovery time: crash and rebuild. *)
    let recovery =
      match mode with
      | Kvstore.Ephemeral -> 0.0
      | Kvstore.Wal ->
        Syscall.exit_process k p 137;
        Kernel.remove_proc k p.Process.pid;
        Aurora_vfs.Memfs.crash k.Kernel.fs;
        let t0 = Machine.now m in
        let p' = Kvstore.spawn k ~recover:true cfg in
        ignore (Scheduler.step_all k);
        ignore p';
        us (Duration.sub (Machine.now m) t0)
      | Kvstore.Aurora ->
        let g = Option.get g in
        let b = Machine.checkpoint_now m g () in
        (* The checkpoint absorbs the log (the port couples them);
           drain so both the image and the truncation are durable. *)
        Api.sls_log_truncate m g;
        Store.wait_durable m.Machine.disk_store b.Types.durable_at;
        Machine.drain_storage m;
        Machine.crash m;
        let m' = Machine.recover m in
        Machine.enable_sls_calls m';
        let g' = Machine.persist m' (`Container c.Container.cid) in
        let t0 = Machine.now m' in
        (* An eager restore: the post-restore log replay then runs
           without major faults. *)
        let pids, _ = Machine.restore_group m' g' ~policy:Types.Eager () in
        let p' = Kernel.proc_exn m'.Machine.kernel (List.hd pids) in
        Kvstore.repair_after_restore p';
        ignore (Scheduler.step_all m'.Machine.kernel);
        us (Duration.sub (Machine.now m') t0)
    in
    row "%14s %14.2f %14.2f %14.1fus\n" label (Stats.mean per_op)
      (Stats.percentile per_op 99.0) recovery
  in
  result_for "none" Kvstore.Ephemeral;
  result_for "fork+WAL" Kvstore.Wal;
  result_for "aurora port" Kvstore.Aurora;
  row "\n('in the case of Redis our initial port is already faster with less\n";
  row " code' - Section 4: no fsync on the op path, no fork pauses)\n"

(* ------------------------------------------------------------------ *)
(* F-hdd: the historical ablation                                      *)
(* ------------------------------------------------------------------ *)

let hdd () =
  section "F-hdd: why SLSes became practical (checkpoint durability by device)";
  row "%16s %18s %22s\n" "device" "stop time (us)" "durable after (us)";
  List.iter
    (fun (label, profile) ->
      let m, c, p, _ = redis_fixture ~profile ~mib:64 () in
      let g = Machine.persist m (`Container c.Container.cid) in
      let resident = Vmmap.resident_pages p.Process.vm in
      let warm = Machine.checkpoint_now m g ~mode:`Full () in
      (* Drain the full image before measuring the steady-state
         incremental cycle. *)
      Store.wait_durable m.Machine.disk_store warm.Types.durable_at;
      dirty_until m p ~target:(resident / 10);
      let b = Machine.checkpoint_now m g ~mode:`Incremental () in
      json_record "hdd"
        [
          (label ^ "_stop_us", jnum (us b.Types.stop_time));
          (label ^ "_durable_after_us",
           jnum (us (Duration.sub b.Types.durable_at b.Types.barrier_at)));
          (label ^ "_pages", jint b.Types.pages_captured);
        ];
      row "%16s %18.1f %22.1f\n" label (us b.Types.stop_time)
        (us (Duration.sub b.Types.durable_at b.Types.barrier_at)))
    [
      ("spinning-disk", Profile.spinning_disk);
      ("nand-ssd", Profile.nand_ssd);
      ("optane-900p", Profile.optane_900p);
      ("nvdimm", Profile.nvdimm);
    ];
  row "\n(EROS-era spinning disks cannot sustain sub-second checkpoint cycles;\n";
  row " 'modern flash ... has largely closed the performance gap' - Section 1-2)\n"


(* ------------------------------------------------------------------ *)
(* F-scale: restore latency vs image size                              *)
(* ------------------------------------------------------------------ *)

let restore_scale () =
  section "F-scale: restore latency vs image size (from NVMe)";
  row "%10s %18s %18s %14s\n" "image" "lazy restore" "eager restore" "ratio";
  let lazy_wins =
    List.map
      (fun mib ->
        let measure policy =
          let m, c, _p, _ = redis_fixture ~mib () in
          let g = Machine.persist m (`Container c.Container.cid) in
          let b = Machine.checkpoint_now m g () in
          Store.wait_durable m.Machine.disk_store b.Types.durable_at;
          Store.drop_caches m.Machine.disk_store;
          let _, breakdown = Machine.restore_group m g ~policy () in
          Duration.to_us breakdown.Types.total_latency
        in
        let lazy_us = measure Types.Lazy in
        let eager_us = measure Types.Eager in
        row "%7dMiB %16.1fus %16.1fus %13.1fx\n" mib lazy_us eager_us
          (eager_us /. lazy_us);
        json_record "restore-scale"
          [
            (Printf.sprintf "image_%dmib_lazy_us" mib, jnum lazy_us);
            (Printf.sprintf "image_%dmib_eager_us" mib, jnum eager_us);
          ];
        lazy_us < eager_us)
      [ 16; 64; 256; 512 ]
  in
  json_record "restore-scale"
    [ ("lazy_beats_eager_flag", jint (Bool.to_int (List.for_all Fun.id lazy_wins))) ];
  row "\n(lazy restore grows with metadata, eager with data: the gap is what\n";
  row " makes density and warm starts practical - Sections 3-4)\n"


(* ------------------------------------------------------------------ *)
(* F-sharedcow: object-level vs per-process dirty tracking             *)
(* ------------------------------------------------------------------ *)

let shared_cow () =
  section "F-sharedcow: flush volume, object-level vs per-process tracking";
  row "%10s %12s %18s %22s\n" "sharers" "dirty pages" "aurora flushes" "per-process flushes";
  List.iter
    (fun nprocs ->
      let m = Machine.create () in
      let k = m.Machine.kernel in
      let c = Kernel.new_container k ~name:"shared" in
      (* N processes all mapping one 4 MiB shared segment; each writes
         the whole region between checkpoints (worst case for naive
         per-process tracking, which would flush every page once per
         process; Aurora's object-level dirty sets flush each page
         exactly once). *)
      let procs =
        List.init nprocs (fun i ->
            Kernel.spawn k ~container:c.Container.cid
              ~name:(Printf.sprintf "w%d" i) ~program:"aurora/kv-client" ())
      in
      let seg_pages = 1024 in
      let oid =
        Syscall.shm_open k (List.hd procs) ~flavor:Aurora_posix.Shm.Posix_shm
          ~name:"/seg" ~npages:seg_pages
      in
      let entries = List.map (fun p -> (p, Syscall.shm_attach k p oid)) procs in
      let g = Machine.persist m (`Container c.Container.cid) in
      ignore (Machine.checkpoint_now m g ());
      (* Every process writes every page. *)
      List.iter
        (fun ((p : Process.t), (e : Vmmap.entry)) ->
          for i = 0 to seg_pages - 1 do
            Syscall.mem_write k p ~vpn:(e.Vmmap.start_vpn + i) ~offset:0
              ~value:(Int64.of_int (p.Process.pid * 100_000 + i))
          done)
        entries;
      let b = Machine.checkpoint_now m g ~mode:`Incremental () in
      row "%10d %12d %18d %22d\n" nprocs seg_pages b.Types.pages_captured
        (seg_pages * nprocs))
    [ 1; 2; 4; 8 ];
  row "\n('it thus never flushes the same page twice for shared memory or COW\n";
  row " memory regions' - Section 3; naive per-process tracking scales with\n";
  row " the number of sharers)\n"

(* ------------------------------------------------------------------ *)
(* F-stripe: device-array width sweep                                  *)
(* ------------------------------------------------------------------ *)

let stripe_sweep () =
  section
    "F-stripe: background flush vs device-array width (256 MiB image, 14% dirty)";
  row "%10s %16s %18s %10s %10s\n" "stripes" "stop time (us)" "flush time (us)"
    "pages" "speedup";
  let base_flush = ref None in
  List.iter
    (fun stripes ->
      let m, c, p, _ = redis_fixture ~stripes ~mib:256 () in
      let g = Machine.persist m (`Container c.Container.cid) in
      let resident = Vmmap.resident_pages p.Process.vm in
      (* Warm a full checkpoint and drain it so the measured cycle is
         the steady-state incremental one. *)
      let warm = Machine.checkpoint_now m g ~mode:`Full () in
      Store.wait_durable m.Machine.disk_store warm.Types.durable_at;
      dirty_until m p ~target:(resident * 14 / 100);
      let b = Machine.checkpoint_now m g ~mode:`Incremental () in
      let flush = Duration.sub b.Types.durable_at b.Types.barrier_at in
      let speedup =
        match !base_flush with
        | None ->
          base_flush := Some flush;
          1.0
        | Some single -> Duration.ratio single flush
      in
      json_record "stripe-sweep"
        [
          (Printf.sprintf "stripes_%d_stop_us" stripes, jnum (us b.Types.stop_time));
          (Printf.sprintf "stripes_%d_flush_us" stripes, jnum (us flush));
          (Printf.sprintf "stripes_%d_pages" stripes, jint b.Types.pages_captured);
          (Printf.sprintf "stripes_%d_speedup" stripes, jnum speedup);
        ];
      (* Phase histograms accumulated by the machine's registry across
         both checkpoints (warm full + measured incremental), plus the
         store's commit-to-durable distribution and the per-stripe
         device command totals. *)
      let mm = Machine.metrics m in
      let pfx fmt = Printf.sprintf fmt stripes in
      json_hist mm "stripe-sweep" ~key:(pfx "stripes_%d_ckpt_stop") "ckpt.stop_us";
      json_hist mm "stripe-sweep" ~key:(pfx "stripes_%d_ckpt_quiesce")
        "ckpt.quiesce_us";
      json_hist mm "stripe-sweep" ~key:(pfx "stripes_%d_store_flush")
        "store.nvme.flush_us";
      let dev_commands = ref 0 and dev_blocks_written = ref 0 in
      for i = 0 to stripes - 1 do
        (match Metrics.find mm (Printf.sprintf "dev.nvme.%d.commands" i) with
         | Some (Metrics.Counter n) -> dev_commands := !dev_commands + n
         | _ -> ());
        match Metrics.find mm (Printf.sprintf "dev.nvme.%d.blocks_written" i) with
        | Some (Metrics.Counter n) -> dev_blocks_written := !dev_blocks_written + n
        | _ -> ()
      done;
      json_record "stripe-sweep"
        [
          (pfx "stripes_%d_dev_commands", jint !dev_commands);
          (pfx "stripes_%d_dev_blocks_written", jint !dev_blocks_written);
        ];
      row "%10d %16.1f %18.1f %10d %9.2fx\n" stripes (us b.Types.stop_time)
        (us flush) b.Types.pages_captured speedup)
    [ 1; 2; 4; 8 ];
  row "\n(the stop time is CPU-side and does not change; the background flush\n";
  row " fans out over the array's independent queues, so durability scales\n";
  row " with the stripe count - the paper's four-drive testbed)\n"

(* ------------------------------------------------------------------ *)
(* F-fault: media-fault sweep                                          *)
(* ------------------------------------------------------------------ *)

(* Survival under escalating media-error rates: commit a history of
   generations while the device injects transient errors, silent
   corruption and one latent sector per generation; then power-fail,
   reopen, scrub, and audit every committed generation bit-for-bit.
   Reports the survival rate plus the self-healing ledger (retries,
   checksum catches, repairs per source, losses). *)
let fault_sweep () =
  section "F-fault: survival and self-healing vs media-error rate";
  row "%12s %10s %10s %10s %10s %10s %10s %8s\n" "read err" "gens" "survived"
    "retries" "csum hits" "healed" "lost blks" "exact";
  let gens_per_run = 6 and pages_per_gen = 64 in
  List.iter
    (fun (label, rate, protected) ->
      let clock = Clock.create () in
      let dev =
        Devarray.create ~stripes:2
          ~faults:
            (Fault.plan ~seed:1234L ~transient_read:rate
               ~transient_write:(rate /. 2.) ~corruption:(rate /. 10.) ())
          ~clock ~profile:Profile.optane_900p "nvme"
      in
      let s =
        Store.format
          ?protection:
            (if protected then Some { Store.verify = true; mirror = true }
             else Some { Store.verify = false; mirror = false })
          ~dev ()
      in
      (* Bench-local sinks: no Machine here, so bind instrumentation to
         the raw array and store directly — device transfers and commit
         flushes under fault injection get measured too. *)
      let obs = Obs.create clock in
      Devarray.set_obs dev (Some obs);
      Store.set_obs s (Some obs);
      let reference = Hashtbl.create 8 in
      for gnum = 0 to gens_per_run - 1 do
        ignore (Store.begin_generation s ());
        let pages =
          List.init pages_per_gen (fun i ->
              (i, Int64.of_int ((gnum * 10_000) + (i * 17) + 3)))
        in
        (* One column put per generation, as a checkpoint writes an
           object's pages. *)
        Store.put_pages s ~oid:1 (Array.of_list pages);
        let record = Printf.sprintf "manifest %d" gnum in
        Store.put_record s ~oid:7 record;
        (match Store.commit_result s () with
         | Ok (g, d) ->
           Store.wait_durable s d;
           Hashtbl.replace reference g (pages, record)
         | Error _ -> ());
        (* >= 1 latent sector error per generation, clear of the
           superblock slots. *)
        let used = Devarray.used_blocks dev in
        if used > 3 then Devarray.inject_latent dev (2 + ((gnum * 37) mod (used - 2)))
      done;
      let committed = Hashtbl.length reference in
      Devarray.crash dev;
      match Store.open_ ~dev with
      | Error e ->
        row "%12s %10d %10d %44s\n" label committed 0
          ("unrecoverable: " ^ Store.describe_error e)
      | Ok s' ->
        ignore (Store.fsck ~scrub:true s');
        let surviving = Store.generations s' in
        let survived = ref 0 and exact = ref true in
        Hashtbl.iter
          (fun g (pages, record) ->
            if List.mem g surviving then begin
              incr survived;
              List.iter
                (fun (pindex, seed) ->
                  match Store.read_page s' g ~oid:1 ~pindex with
                  | Some v when Int64.equal v seed -> ()
                  | _ -> exact := false
                  | exception Store.Fail _ -> exact := false)
                pages;
              match Store.read_record s' g ~oid:7 with
              | Some r when String.equal r record -> ()
              | _ -> exact := false
              | exception Store.Fail _ -> exact := false
            end)
          reference;
        let io = Store.io_stats s' in
        let fs = Devarray.fault_stats dev in
        let healed = io.Store.repaired_from_mirror + io.Store.repaired_from_dedup in
        let key = "rate_" ^ label in
        json_record "fault-sweep"
          [
            (key ^ "_committed", jint committed);
            (key ^ "_survived", jint !survived);
            ( key ^ "_survival_rate",
              jnum
                (if committed = 0 then 1.0
                 else float_of_int !survived /. float_of_int committed) );
            (key ^ "_bit_exact", jint (if !exact then 1 else 0));
            (key ^ "_read_retries", jint io.Store.read_retries);
            (key ^ "_checksum_failures", jint io.Store.checksum_failures);
            (key ^ "_repaired_from_mirror", jint io.Store.repaired_from_mirror);
            (key ^ "_repaired_from_dedup", jint io.Store.repaired_from_dedup);
            (key ^ "_lost_blocks", jint io.Store.lost_blocks);
            (key ^ "_injected_transient_reads", jint fs.Fault.transient_reads);
            (key ^ "_injected_latent_reads", jint fs.Fault.latent_reads);
            (key ^ "_injected_corruptions", jint fs.Fault.corruptions);
            ( key ^ "_flush_spans",
              jint (List.length (Span.find_all obs.Obs.spans ~name:"store.flush")) );
          ];
        json_hist obs.Obs.metrics "fault-sweep" ~key:(key ^ "_store_flush")
          "store.nvme.flush_us";
        (* Per-stripe transfer-time distributions: retries and repairs
           show up as a fattened tail as the error rate climbs. *)
        Array.iteri
          (fun i _ ->
            json_hist obs.Obs.metrics "fault-sweep"
              ~key:(Printf.sprintf "%s_dev%d_xfer" key i)
              (Printf.sprintf "dev.nvme.%d.xfer_us" i))
          (Devarray.devices dev);
        row "%12s %10d %10d %10d %10d %10d %10d %8s\n" label committed !survived
          io.Store.read_retries io.Store.checksum_failures healed
          io.Store.lost_blocks
          (if !exact then "yes" else "NO"))
    [
      (* A bare store (no checksums, no mirror) under the same latent
         errors: the control the integrity machinery is measured
         against. *)
      ("unprotected", 0., false);
      ("0", 0., true);
      ("1e-4", 1e-4, true);
      ("1e-3", 1e-3, true);
      ("1e-2", 1e-2, true);
    ];
  row "\n(per-block checksums catch silent corruption; reads retry transient\n";
  row " errors with backoff and repair latent sectors from the mirror or a\n";
  row " dedup duplicate, rewriting in place - survival holds through the\n";
  row " 1e-3 acceptance point and degrades loudly, never silently)\n"

(* ------------------------------------------------------------------ *)
(* F-phase: checkpoint/restore phase breakdown from the span tree      *)
(* ------------------------------------------------------------------ *)

(* The observability cross-check: run one steady-state incremental
   checkpoint and one cold restore with the span recorder cleared, then
   reconstruct the Table 3 / Table 4 phase split from the recorded
   spans alone and verify it against the breakdown structs the engines
   return. The checkpoint phases (quiesce + serialize + cow_mark) must
   sum to the measured stop time, and the restore phases (metadata +
   pagein) to the measured restore latency, within 1%. *)
let phase_breakdown () =
  section "F-phase: phase breakdown from spans (256 MiB image, 14% dirty)";
  let m, c, p, _ = redis_fixture ~mib:256 () in
  let g = Machine.persist m (`Container c.Container.cid) in
  let resident = Vmmap.resident_pages p.Process.vm in
  let warm = Machine.checkpoint_now m g ~mode:`Full () in
  Store.wait_durable m.Machine.disk_store warm.Types.durable_at;
  dirty_until m p ~target:(resident * 14 / 100);
  let spans = Machine.spans m in
  Span.clear spans;
  let b = Machine.checkpoint_now m g ~mode:`Incremental () in
  Store.wait_durable m.Machine.disk_store b.Types.durable_at;
  Store.drop_caches m.Machine.disk_store;
  let _, r = Machine.restore_group m g ~policy:Types.Lazy_prefetch () in
  let phase name =
    match Span.find spans ~name with
    | Some s -> us (Span.duration s)
    | None -> Float.nan
  in
  let quiesce = phase "ckpt.quiesce" in
  let serialize = phase "ckpt.serialize" in
  let cow_mark = phase "ckpt.cow_mark" in
  let flush = phase "store.flush" in
  let meta = phase "restore.metadata" in
  let pagein = phase "restore.pagein" in
  let stop = us b.Types.stop_time in
  let total = us r.Types.total_latency in
  let ckpt_sum = quiesce +. serialize +. cow_mark in
  let restore_sum = meta +. pagein in
  let within_1pct sum reference =
    Float.is_finite sum && Float.abs (sum -. reference) <= (0.01 *. reference) +. 1e-6
  in
  let ckpt_ok = within_1pct ckpt_sum stop in
  let restore_ok = within_1pct restore_sum total in
  row "\n%-28s %14s\n" "Phase (from spans)" "duration (us)";
  row "%-28s %14.1f\n" "ckpt.quiesce" quiesce;
  row "%-28s %14.1f\n" "ckpt.serialize" serialize;
  row "%-28s %14.1f\n" "ckpt.cow_mark" cow_mark;
  row "%-28s %14.1f   (vs stop time %.1f: %s)\n" "  sum" ckpt_sum stop
    (if ckpt_ok then "within 1%" else "MISMATCH");
  row "%-28s %14.1f   (commit -> durable, background)\n" "store.flush" flush;
  row "%-28s %14.1f\n" "restore.metadata" meta;
  row "%-28s %14.1f\n" "restore.pagein" pagein;
  row "%-28s %14.1f   (vs restore latency %.1f: %s)\n" "  sum" restore_sum total
    (if restore_ok then "within 1%" else "MISMATCH");
  json_record "phase-breakdown"
    [
      ("quiesce_us", jnum quiesce);
      ("serialize_us", jnum serialize);
      ("cow_mark_us", jnum cow_mark);
      ("stop_us", jnum stop);
      ("flush_us", jnum flush);
      ("restore_metadata_us", jnum meta);
      ("restore_pagein_us", jnum pagein);
      ("restore_total_us", jnum total);
      ("ckpt_sum_within_1pct", jint (if ckpt_ok then 1 else 0));
      ("restore_sum_within_1pct", jint (if restore_ok then 1 else 0));
    ];
  (* The registry's histograms across the whole fixture (warm + measured
     cycles) — what `sls stats` reports for a long-running machine. *)
  let mm = Machine.metrics m in
  List.iter
    (fun (key, name) -> json_hist mm "phase-breakdown" ~key name)
    [
      ("hist_ckpt_stop", "ckpt.stop_us");
      ("hist_ckpt_quiesce", "ckpt.quiesce_us");
      ("hist_ckpt_serialize", "ckpt.serialize_us");
      ("hist_ckpt_cow_mark", "ckpt.cow_mark_us");
      ("hist_ckpt_flush", "ckpt.flush_us");
      ("hist_restore_total", "restore.total_us");
      ("hist_restore_metadata", "restore.metadata_us");
      ("hist_restore_pagein", "restore.pagein_us");
    ];
  if not (ckpt_ok && restore_ok) then begin
    prerr_endline "phase-breakdown: span sums disagree with measured totals";
    exit 1
  end

(* The provenance cross-check: full + incremental checkpoint of a
   striped Redis-scale image, then verify the three attribution
   invariants end to end — (1) the per-process and per-object rows sum
   {e exactly} to the checkpoint breakdown's page/byte totals, (2) the
   store's reachable-vs-live block cross-check holds within 1% on the
   live store, and (3) after a crash and recovery the persisted
   generation-table provenance still matches and the same cross-check
   holds on the reopened store (the offline, fsck-style path). *)
let provenance () =
  section "G-provenance: attribution sums + storage provenance (64 MiB, 4 stripes)";
  let m, c, p, _ = redis_fixture ~mib:64 ~stripes:4 () in
  let g = Machine.persist m (`Container c.Container.cid) in
  let full = Machine.checkpoint_now m g ~mode:`Full () in
  Store.wait_durable m.Machine.disk_store full.Types.durable_at;
  dirty_until m p ~target:(Vmmap.resident_pages p.Process.vm * 10 / 100);
  let b = Machine.checkpoint_now m g ~mode:`Incremental () in
  Store.wait_durable m.Machine.disk_store b.Types.durable_at;
  (* (1) exact attribution sums, on the incremental checkpoint. *)
  let a =
    match Machine.last_attribution g with
    | Some a -> a
    | None -> prerr_endline "provenance: checkpoint produced no attribution"; exit 1
  in
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let proc_pages = sum (fun (r : Types.proc_attribution) -> r.Types.p_pages) a.Types.at_procs in
  let proc_bytes = sum (fun (r : Types.proc_attribution) -> r.Types.p_bytes) a.Types.at_procs in
  let obj_pages = sum (fun (r : Types.obj_attribution) -> r.Types.a_pages) a.Types.at_objects in
  let attrib_exact =
    proc_pages = a.Types.at_pages_total
    && obj_pages = a.Types.at_pages_total
    && proc_bytes = a.Types.at_bytes_total
    && a.Types.at_pages_total = b.Types.pages_captured
  in
  row "\n%-40s %12s\n" "Invariant" "result";
  row "%-40s %12s   (%d pages, %d bytes over %d procs / %d objects)\n"
    "attribution rows sum to breakdown"
    (if attrib_exact then "exact" else "MISMATCH")
    a.Types.at_pages_total a.Types.at_bytes_total
    (List.length a.Types.at_procs) (List.length a.Types.at_objects);
  (* (2) live-store cross-check + per-generation reports. *)
  let store = m.Machine.disk_store in
  let x_mem = Store.crosscheck store in
  row "%-40s %12s   (%d reachable vs %d live blocks)\n" "reachable vs live (in-memory)"
    (if x_mem.Store.x_within_1pct then "within 1%" else "MISMATCH")
    x_mem.Store.x_reachable_blocks x_mem.Store.x_live_blocks;
  let prov_pre =
    match Store.gen_provenance store b.Types.gen with
    | Some p -> p
    | None -> prerr_endline "provenance: committed generation has no provenance"; exit 1
  in
  let report_pre =
    match Store.gen_report store b.Types.gen with
    | Some r -> r
    | None -> prerr_endline "provenance: gen_report failed on live store"; exit 1
  in
  row "%-40s %12d   (%d data + %d meta + %d mirror + %d commit blocks)\n"
    "bytes written by incremental gen" (Store.bytes_written prov_pre)
    prov_pre.Store.pv_data_blocks prov_pre.Store.pv_meta_blocks
    prov_pre.Store.pv_mirror_blocks prov_pre.Store.pv_commit_blocks;
  (* (3) crash, recover, re-verify offline: persisted provenance and the
     walked report agree with what the live store said. *)
  Machine.crash m;
  let m2 = Machine.recover m in
  let store2 = m2.Machine.disk_store in
  let x_disk = Store.crosscheck store2 in
  let prov_match, report_match =
    match (Store.gen_provenance store2 b.Types.gen, Store.gen_report store2 b.Types.gen) with
    | Some p2, Some r2 ->
      ( p2.Store.pv_pages = prov_pre.Store.pv_pages
        && p2.Store.pv_records = prov_pre.Store.pv_records
        && p2.Store.pv_logical_bytes = prov_pre.Store.pv_logical_bytes
        && p2.Store.pv_data_blocks = prov_pre.Store.pv_data_blocks
        && p2.Store.pv_dedup_hits = prov_pre.Store.pv_dedup_hits,
        r2.Store.r_data_blocks = report_pre.Store.r_data_blocks
        && r2.Store.r_page_entries = report_pre.Store.r_page_entries
        && r2.Store.r_logical_bytes = report_pre.Store.r_logical_bytes )
    | _ -> (false, false)
  in
  row "%-40s %12s   (%d reachable vs %d live blocks)\n" "reachable vs live (reopened)"
    (if x_disk.Store.x_within_1pct then "within 1%" else "MISMATCH")
    x_disk.Store.x_reachable_blocks x_disk.Store.x_live_blocks;
  row "%-40s %12s\n" "gentable provenance survives reopen"
    (if prov_match then "match" else "MISMATCH");
  row "%-40s %12s\n" "walked report identical after reopen"
    (if report_match then "match" else "MISMATCH");
  (* The generation diff, full -> incremental, for the record. *)
  let d = Store.diff store2 ~from_gen:full.Types.gen ~to_gen:b.Types.gen in
  row "%-40s %+12d   (+%d/-%d pages, %d changed)\n" "page-payload delta full->incr"
    d.Store.df_bytes_delta d.Store.df_pages_added d.Store.df_pages_removed
    d.Store.df_pages_changed;
  json_record "provenance"
    [
      ("pages_total", jint a.Types.at_pages_total);
      ("bytes_total", jint a.Types.at_bytes_total);
      ("metadata_bytes_total", jint a.Types.at_metadata_bytes_total);
      ("procs", jint (List.length a.Types.at_procs));
      ("objects", jint (List.length a.Types.at_objects));
      ("bytes_written_incr", jint (Store.bytes_written prov_pre));
      ("dedup_hits_incr", jint prov_pre.Store.pv_dedup_hits);
      ("dedup_saved_bytes_incr", jint prov_pre.Store.pv_dedup_saved_bytes);
      ("reachable_blocks_mem", jint x_mem.Store.x_reachable_blocks);
      ("live_blocks_mem", jint x_mem.Store.x_live_blocks);
      ("reachable_blocks_disk", jint x_disk.Store.x_reachable_blocks);
      ("live_blocks_disk", jint x_disk.Store.x_live_blocks);
      ("diff_pages_changed", jint d.Store.df_pages_changed);
      ("attrib_sum_exact", jint (if attrib_exact then 1 else 0));
      ("explain_within_1pct_mem", jint (if x_mem.Store.x_within_1pct then 1 else 0));
      ("explain_within_1pct_disk", jint (if x_disk.Store.x_within_1pct then 1 else 0));
      ("prov_persists", jint (if prov_match && report_match then 1 else 0));
    ];
  if
    not
      (attrib_exact && x_mem.Store.x_within_1pct && x_disk.Store.x_within_1pct
       && prov_match && report_match)
  then begin
    prerr_endline "provenance: attribution/provenance cross-check failed";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* H-rate: pipelined checkpoint epochs                                 *)
(* ------------------------------------------------------------------ *)

(* The cost the application actually pays per checkpoint is the
   barrier stop time plus any backpressure wait when the in-flight
   window is full. Synchronous checkpointing (window 1) charges the
   whole flush to the app; a window of 2 hides one flush under
   execution, so at steady state the amortized overhead collapses to
   the barrier alone. Sweep interval x stripes x window and report the
   amortized per-checkpoint overhead from the registry's histogram
   deltas over a measured run. *)
let ckpt_rate () =
  section "H-rate: amortized checkpoint overhead vs pipeline depth (64 MiB)";
  row "%14s %8s %8s %8s %12s %12s %12s %12s %12s\n" "interval (ms)" "stripes"
    "window" "ckpts" "stop (us)" "backpr (us)" "amort (us)" "p99 stop"
    "recorder";
  let measure ~interval_ms ~stripes ~inflight =
    let m, c, _p, _ =
      redis_fixture ~stripes ~max_inflight:inflight ~mib:64 ()
    in
    let g =
      Machine.persist m
        ~interval:(Duration.milliseconds interval_ms)
        (`Container c.Container.cid)
    in
    (* Warm a full checkpoint and retire it so the measured window is
       the steady-state incremental cycle. *)
    ignore (Machine.checkpoint_now m g ~mode:`Full ());
    Machine.drain_storage m;
    let mm = Machine.metrics m in
    let stop_h = Metrics.histogram mm "ckpt.stop_us" in
    let bp_h = Metrics.histogram mm "ckpt.backpressure_us" in
    let rec_h = Metrics.histogram mm "ckpt.recorder_us" in
    let stop0 = Metrics.hist_sum stop_h and bp0 = Metrics.hist_sum bp_h in
    let rec0 = Metrics.hist_sum rec_h in
    let n0 = Metrics.hist_count bp_h in
    Machine.run m (Duration.milliseconds 300);
    Machine.drain_storage m;
    let n = Metrics.hist_count bp_h - n0 in
    let d_stop = Metrics.hist_sum stop_h -. stop0 in
    let d_bp = Metrics.hist_sum bp_h -. bp0 in
    let d_rec = Metrics.hist_sum rec_h -. rec0 in
    let per x = if n = 0 then Float.nan else x /. float_of_int n in
    let amort = per (d_stop +. d_bp) in
    let p99_stop = Metrics.quantile stop_h 0.99 in
    (* Flight-recorder tax: serializing the telemetry ring into the
       checkpoint is charged inside the stop window, so it must stay
       a rounding error relative to the stop time itself. *)
    let rec_pct = if d_stop > 0. then d_rec /. d_stop *. 100. else 0. in
    let key = Printf.sprintf "i%d_s%d_k%d" interval_ms stripes inflight in
    json_record "ckpt-rate"
      [
        (key ^ "_ckpts", jint n);
        (key ^ "_stop_us", jnum (per d_stop));
        (key ^ "_backpressure_us", jnum (per d_bp));
        (key ^ "_amort_us", jnum amort);
        (key ^ "_p99_stop_us", jnum p99_stop);
        (key ^ "_recorder_us", jnum (per d_rec));
        (key ^ "_recorder_pct", jnum rec_pct);
      ];
    row "%14d %8d %8d %8d %12.1f %12.1f %12.1f %12.1f %11.2f%%\n" interval_ms
      stripes inflight n (per d_stop) (per d_bp) amort p99_stop rec_pct;
    (amort, p99_stop, rec_pct)
  in
  (* The acceptance triple: the 4-stripe fixture at the default 10 ms
     interval, synchronous vs the default window vs a deep window. *)
  let rec_worst = ref 0. in
  let measure ~interval_ms ~stripes ~inflight =
    let amort, p99, rec_pct = measure ~interval_ms ~stripes ~inflight in
    if Float.is_finite rec_pct then rec_worst := Float.max !rec_worst rec_pct;
    (amort, p99)
  in
  let a1, p99_1 = measure ~interval_ms:10 ~stripes:4 ~inflight:1 in
  let a2, p99_2 = measure ~interval_ms:10 ~stripes:4 ~inflight:2 in
  ignore (measure ~interval_ms:10 ~stripes:4 ~inflight:4);
  (* Higher checkpoint frequencies: backpressure starts to bite when
     the flush no longer fits inside the interval. *)
  ignore (measure ~interval_ms:5 ~stripes:4 ~inflight:1);
  ignore (measure ~interval_ms:5 ~stripes:4 ~inflight:2);
  ignore (measure ~interval_ms:2 ~stripes:4 ~inflight:1);
  ignore (measure ~interval_ms:2 ~stripes:4 ~inflight:2);
  (* A single queue: slower flush, pipelining matters even more. *)
  ignore (measure ~interval_ms:10 ~stripes:1 ~inflight:1);
  ignore (measure ~interval_ms:10 ~stripes:1 ~inflight:2);
  let reduction =
    if Float.is_finite a1 && a1 > 0. then (a1 -. a2) /. a1 *. 100. else Float.nan
  in
  let overhead_ok = Float.is_finite reduction && reduction >= 30. in
  let stop_ok =
    Float.is_finite p99_1 && Float.is_finite p99_2 && p99_2 <= 1.1 *. p99_1
  in
  let recorder_ok = !rec_worst < 1.0 in
  json_record "ckpt-rate"
    [
      ("amort_reduction_pct", jnum reduction);
      ("p99_stop_k1_us", jnum p99_1);
      ("p99_stop_k2_us", jnum p99_2);
      ("recorder_worst_pct", jnum !rec_worst);
      ("pipeline_overhead_flag", jint (if overhead_ok then 1 else 0));
      ("pipeline_stop_flag", jint (if stop_ok then 1 else 0));
      ("recorder_overhead_flag", jint (if recorder_ok then 1 else 0));
    ];
  row "\namortized overhead at 10 ms / 4 stripes: %.1f us sync -> %.1f us" a1 a2;
  row " pipelined (%.1f%% lower, %s)\n" reduction
    (if overhead_ok then "ok" else "BELOW 30% TARGET");
  row "p99 stop time: %.1f us sync vs %.1f us pipelined (%s)\n" p99_1 p99_2
    (if stop_ok then "within 10%" else "REGRESSED");
  row "flight-recorder tax: %.2f%% of stop time at worst (%s)\n" !rec_worst
    (if recorder_ok then "under the 1% budget" else "OVER 1% BUDGET");
  row "(the barrier cost is CPU-side and window-independent; the window\n";
  row " only moves the flush wait off the application's critical path)\n";
  if not (overhead_ok && stop_ok && recorder_ok) then begin
    prerr_endline "ckpt-rate: pipelining acceptance criteria not met";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* I-repl: replication goodput and convergence vs link loss            *)
(* ------------------------------------------------------------------ *)

(* Hot-standby replication over an increasingly lossy link: commit a
   history of checkpoint generations, attach a standby, and drive every
   generation through the ARQ session. Measures goodput (acked image
   payload over the simulated time the transfer occupied), time to
   convergence, and the retransmission bill. Acceptance: every sweep
   point converges to byte-identical standby state (verified by full
   re-export of the newest replicated pair), no corrupt image is ever
   imported, and a lossless link never retransmits. *)
let repl_sweep () =
  section "I-repl: replication goodput and convergence vs link loss";
  row "%8s %6s %6s %14s %14s %8s %8s %10s\n" "loss" "gens" "acked"
    "goodput MiB/s" "converge ms" "rexmit" "resync" "verified";
  let failed = ref false in
  List.iter
    (fun (label, loss) ->
      let m, c, p, _cfg = redis_fixture ~mib:2 () in
      (* Long interval: only manual checkpoints fire, so retransmit
         backoff (which advances simulated time) cannot trigger
         periodic shipping mid-measurement. *)
      let g =
        Machine.persist m ~interval:(Duration.seconds 30)
          (`Container c.Container.cid)
      in
      (* A long history of small deltas: enough frames on the wire for
         per-message loss rates of 1e-3..1e-2 to actually express.
         Widen the history window so the whole history survives GC. *)
      m.Machine.history_window <- 32;
      for _ = 1 to 30 do
        dirty_until m p ~target:16;
        ignore (Machine.checkpoint_now m g ())
      done;
      let faults =
        if loss > 0. then Some (Netlink.fault_plan ~seed:4L ~drop:loss ())
        else None
      in
      let repl = Machine.attach_standby m ?faults g in
      let clock = Machine.clock m in
      let t0 = Clock.now clock in
      let pgens =
        List.sort Int.compare (Store.generations m.Machine.disk_store)
      in
      let payload = ref 0 and acked = ref 0 in
      let drive gen =
        let r = Replica.ship repl ~gen in
        if r.Replica.sh_outcome = `Acked then begin
          incr acked;
          payload := !payload + r.Replica.sh_bytes
        end
      in
      List.iter drive pgens;
      (* A ship that exhausted its retry budget leaves the session
         degraded; re-drive the newest generation until it converges. *)
      let retries = ref 0 in
      while Replica.lag repl > 0 && !retries < 10 do
        incr retries;
        drive (Option.get (Store.latest m.Machine.disk_store))
      done;
      let elapsed = Duration.sub (Clock.now clock) t0 in
      let st = Replica.stats repl in
      let converged = Replica.lag repl = 0 in
      let verified =
        converged
        && (match Replica.standby_latest repl with
           | Some (pg, sg) ->
             String.equal
               (Sendrecv.export m.Machine.disk_store ~gen:pg
                  ~pgid:g.Types.pgid ())
               (Sendrecv.export (Replica.standby_store repl) ~gen:sg
                  ~pgid:g.Types.pgid ())
           | None -> false)
      in
      let secs = Duration.to_ms elapsed /. 1e3 in
      let goodput =
        if secs > 0. then float_of_int !payload /. (1024. *. 1024.) /. secs
        else Float.nan
      in
      if not verified then failed := true;
      if st.Replica.corrupt_rejects > 0 then failed := true;
      if loss = 0. && st.Replica.retransmits > 0 then failed := true;
      let key = "loss_" ^ label in
      json_record "repl-sweep"
        [
          (key ^ "_generations", jint (List.length pgens));
          (key ^ "_acked", jint !acked);
          (key ^ "_goodput_mibps", jnum goodput);
          (key ^ "_time_to_converge_ms", jnum (Duration.to_ms elapsed));
          (key ^ "_retransmits", jint st.Replica.retransmits);
          (key ^ "_resyncs", jint st.Replica.resyncs);
          (key ^ "_corrupt_rejects", jint st.Replica.corrupt_rejects);
          (key ^ "_duplicate_frames", jint st.Replica.duplicate_frames);
          (key ^ "_wire_bytes", jint st.Replica.wire_bytes);
          (key ^ "_payload_bytes", jint !payload);
          (key ^ "_converged", jint (if converged then 1 else 0));
          (key ^ "_verified", jint (if verified then 1 else 0));
        ];
      row "%8s %6d %6d %14.1f %14.2f %8d %8d %10s\n" label
        (List.length pgens) !acked goodput (Duration.to_ms elapsed)
        st.Replica.retransmits st.Replica.resyncs
        (if verified then "yes" else "NO");
      Machine.detach_standby m)
    [ ("0", 0.); ("1e-3", 1e-3); ("1e-2", 1e-2) ];
  if !failed then begin
    prerr_endline
      "repl-sweep: acceptance criteria not met (non-convergence, corrupt \
       import, or retransmits on a lossless link)";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* J-critpath: critical-path blame vs the engine's breakdown, and the  *)
(* cost of the dynamic probes                                          *)
(* ------------------------------------------------------------------ *)

(* Two gates. (1) Correctness: for each stripe count, run a
   steady-state incremental checkpoint and extract the critical path
   from the span tree alone; the three barrier segments must sum to
   the breakdown struct's measured stop time within 1%, and the
   contiguous segments must cover barrier->durability (percentages sum
   to 100). The sweep also shows the blame migration the analyzer
   exists to expose: with one stripe the flush dominates, with eight
   the CPU-side barrier does. (2) Cost: probes are compiled into every
   device/store/checkpoint hot path, so (a) subscriptions must not
   perturb simulated time at all (the amortized checkpoint cost is
   bit-identical with and without them), and (b) the wall-clock tax of
   live aggregations on a checkpoint-saturated workload must stay
   under 3% (gated here loosely and by bench_regress.py via
   probe_overhead_pct). *)
let critpath () =
  section "J-critpath: checkpoint critical path from the span tree (64 MiB)";
  row "%8s %10s %10s | %8s %10s %9s %6s %8s %11s | %8s\n" "stripes"
    "stop (us)" "total (us)" "quiesce" "serialize" "cow_mark" "prep" "flush"
    "superblock" "pct sum";
  let failed = ref false in
  List.iter
    (fun stripes ->
      let m, c, p, _ = redis_fixture ~stripes ~mib:64 () in
      let g = Machine.persist m (`Container c.Container.cid) in
      let resident = Vmmap.resident_pages p.Process.vm in
      ignore (Machine.checkpoint_now m g ~mode:`Full ());
      Machine.drain_storage m;
      dirty_until m p ~target:(resident * 14 / 100);
      Span.clear (Machine.spans m);
      let b = Machine.checkpoint_now m g ~mode:`Incremental () in
      Machine.drain_storage m;
      match Machine.critical_path m with
      | Error e ->
        Printf.eprintf "critpath: s%d: %s\n" stripes e;
        failed := true
      | Ok r ->
        let stop = us b.Types.stop_time in
        let stop_ok =
          Float.abs (r.Critpath.cp_stop_us -. stop) <= (0.01 *. stop) +. 1e-6
        in
        let pct name =
          List.fold_left
            (fun acc (s : Critpath.segment) ->
              if String.length s.Critpath.sg_name >= String.length name
                 && String.sub s.Critpath.sg_name 0 (String.length name) = name
              then acc +. s.Critpath.sg_pct
              else acc)
            0. r.Critpath.cp_segments
        in
        let pct_sum =
          List.fold_left
            (fun acc (s : Critpath.segment) -> acc +. s.Critpath.sg_pct)
            0. r.Critpath.cp_segments
        in
        let pct_ok = Float.abs (pct_sum -. 100.) <= 1.0 in
        if not (stop_ok && pct_ok) then failed := true;
        let key = Printf.sprintf "s%d" stripes in
        json_record "critpath"
          [
            (key ^ "_stop_us", jnum r.Critpath.cp_stop_us);
            (key ^ "_total_us", jnum r.Critpath.cp_total_us);
            (key ^ "_quiesce_pct", jnum (pct "quiesce"));
            (key ^ "_serialize_pct", jnum (pct "serialize"));
            (key ^ "_cow_mark_pct", jnum (pct "cow_mark"));
            (key ^ "_prep_pct", jnum (pct "prep"));
            (key ^ "_flush_pct", jnum (pct "flush."));
            (key ^ "_superblock_pct", jnum (pct "superblock"));
            (key ^ "_pct_sum", jnum pct_sum);
            (key ^ "_segments", jint (List.length r.Critpath.cp_segments));
            (key ^ "_stop_match", jint (if stop_ok then 1 else 0));
            ( key ^ "_top_antagonist",
              String
                (match Critpath.top_antagonist r with
                 | Some a -> a.Critpath.an_name
                 | None -> "none") );
          ];
        row "%8d %10.1f %10.1f | %7.1f%% %9.1f%% %8.1f%% %5.1f%% %7.1f%% %10.1f%% | %7.1f%%%s\n"
          stripes r.Critpath.cp_stop_us r.Critpath.cp_total_us (pct "quiesce")
          (pct "serialize") (pct "cow_mark") (pct "prep") (pct "flush.")
          (pct "superblock") pct_sum
          (if stop_ok && pct_ok then "" else "  MISMATCH"))
    [ 1; 2; 4; 8 ];
  row "\n(more stripes shrink the flush window, so blame migrates from the\n";
  row " device segment to the CPU-side barrier - the stop time itself)\n";
  (* --- probe cost ------------------------------------------------- *)
  let queries =
    [
      "dev.io agg quantize(us) by op";
      "dev.io where op = write && blocks > 1 agg sum(blocks) by dev";
      "store.commit agg sum(blocks) by dev";
      "ckpt.phase agg avg(us) by op";
      "alloc.defer agg count by op";
    ]
  in
  let run_workload ~subscribed =
    let m, c, _p, _ = redis_fixture ~stripes:4 ~max_inflight:2 ~mib:64 () in
    let g =
      Machine.persist m ~interval:(Duration.milliseconds 10)
        (`Container c.Container.cid)
    in
    let probes = m.Machine.kernel.Kernel.obs.Obs.probes in
    if subscribed then
      List.iter
        (fun q ->
          match Probe.parse q with
          | Ok spec -> ignore (Probe.subscribe probes spec)
          | Error e -> failwith ("critpath: bad probe query: " ^ e))
        queries;
    ignore (Machine.checkpoint_now m g ~mode:`Full ());
    Machine.drain_storage m;
    let mm = Machine.metrics m in
    let stop_h = Metrics.histogram mm "ckpt.stop_us" in
    let bp_h = Metrics.histogram mm "ckpt.backpressure_us" in
    let stop0 = Metrics.hist_sum stop_h and bp0 = Metrics.hist_sum bp_h in
    let n0 = Metrics.hist_count bp_h in
    let t0 = Sys.time () in
    Machine.run m (Duration.milliseconds 300);
    Machine.drain_storage m;
    let wall = Sys.time () -. t0 in
    let n = Metrics.hist_count bp_h - n0 in
    let amort =
      if n = 0 then Float.nan
      else
        (Metrics.hist_sum stop_h -. stop0 +. (Metrics.hist_sum bp_h -. bp0))
        /. float_of_int n
    in
    let fired =
      List.fold_left
        (fun acc (r : Probe.report) -> acc + r.Probe.rp_fired)
        0
        (Probe.reports probes)
    in
    (wall, amort, fired)
  in
  (* CPU time, best of three per variant: the workload dominates, so
     the raw on-vs-off delta is scheduler noise. The *gated* overhead
     is derived instead: per-event aggregation cost measured in a
     tight loop (stable over 10^6 iterations) scaled by the events the
     workload actually fired, against the workload's baseline CPU
     time. The raw delta is recorded for information only. *)
  let best f =
    let w0, a, fd = f () in
    let w =
      List.fold_left
        (fun acc () -> let w, _, _ = f () in Float.min acc w)
        w0 [ (); () ]
    in
    (w, a, fd)
  in
  let wall_off, amort_off, _ = best (fun () -> run_workload ~subscribed:false) in
  let wall_on, amort_on, fired = best (fun () -> run_workload ~subscribed:true) in
  let per_event_ns =
    let reg = Probe.create () in
    List.iter
      (fun q ->
        match Probe.parse q with
        | Ok spec -> ignore (Probe.subscribe reg spec)
        | Error e -> failwith ("critpath: bad probe query: " ^ e))
      queries;
    let iters = 1_000_000 in
    let t0 = Sys.time () in
    for i = 0 to iters - 1 do
      if Probe.enabled reg Probe.Dev_io then
        Probe.fire reg Probe.Dev_io ~dev:"nvme.0"
          ~op:(if i land 1 = 0 then "write" else "read")
          ~gen:(i land 15) ~pgid:1
          ~us:(float_of_int (i land 127))
          ~blocks:(1 + (i land 7))
    done;
    (Sys.time () -. t0) /. float_of_int iters *. 1e9
  in
  let overhead_pct =
    if wall_off > 0. then
      float_of_int fired *. per_event_ns /. (wall_off *. 1e9) *. 100.
    else Float.nan
  in
  let delta_pct =
    if wall_off > 0. then (wall_on -. wall_off) /. wall_off *. 100.
    else Float.nan
  in
  let sim_identical =
    Float.is_finite amort_off
    && Float.abs (amort_on -. amort_off) <= 1e-6 *. Float.max 1.0 amort_off
  in
  if not sim_identical then failed := true;
  json_record "critpath"
    [
      ("probe_fired", jint fired);
      ("probe_amort_off_us", jnum amort_off);
      ("probe_amort_on_us", jnum amort_on);
      ("probe_sim_identical", jint (if sim_identical then 1 else 0));
      ("probe_per_event_ns", jnum per_event_ns);
      ("probe_overhead_pct", jnum overhead_pct);
      ("probe_wall_delta_pct", jnum delta_pct);
    ];
  row "\nprobe cost on a checkpoint-saturated run (300 ms, 10 ms interval):\n";
  row "  amortized ckpt cost: %.3f us unsubscribed vs %.3f us with %d events\n"
    amort_off amort_on fired;
  row "  aggregated across %d live queries (%s)\n" (List.length queries)
    (if sim_identical then "simulated time bit-identical"
     else "SIMULATED TIME PERTURBED");
  row "  per-event aggregation cost: %.0f ns -> %.4f%% of the workload \
       (budget 3%%; raw wall delta %.1f%%, noise-dominated)\n"
    per_event_ns overhead_pct delta_pct;
  if !failed then begin
    prerr_endline
      "critpath: acceptance criteria not met (blame sums, segment \
       contiguity, or probe cost)";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* L-qos: foreground read latency under checkpoint flush               *)
(* ------------------------------------------------------------------ *)

(* The QoS claim: with the weighted scheduler, a foreground read issued
   while a pipelined checkpoint flush drains slots into a reserved gap
   instead of queueing behind the whole extent batch — p99 read latency
   drops by an integer factor while the flush completes only fg/flush
   weight slower. Fixture: a write-heavy kvstore checkpointed in Full
   mode (dedup off) every 4 ms over 4 stripes with a window of 2, so
   the device spends roughly half its capacity on flush extents. A
   skewed reader (the repo's 80/20 hot-set approximation of a zipfian)
   issues one committed-generation page read every ~230 us of simulated
   time and records the end-to-end latency. Identical runs under Fifo
   and Wdrr; everything is deterministic, so CI replays this target
   twice and diffs the JSON byte-for-byte. *)
let qos_sweep () =
  section "L-qos: foreground read latency vs checkpoint flush (I/O scheduler)";
  row "%8s %8s %12s %12s %12s %12s %12s %10s\n" "sched" "reads" "read p50"
    "read p99" "read max" "flush mean" "stop p99" "gap fills";
  let measure ~label ~io_sched =
    let m, c, _p, _cfg =
      redis_fixture ~stripes:4 ~max_inflight:2 ~io_sched ~dedup:false ~mib:16 ()
    in
    let g =
      Machine.persist m
        ~interval:(Duration.milliseconds 4)
        (`Container c.Container.cid)
    in
    (* Full captures: every epoch flushes the whole working set, the
       sustained-antagonist shape (incremental would shrink the batch
       to the dirty set and with it the contention under test). *)
    g.Types.incremental <- false;
    ignore (Machine.checkpoint_now m g ~mode:`Full ());
    Machine.drain_storage m;
    let store = m.Machine.disk_store in
    let gen0 = Option.get (Store.latest store) in
    (* The reader targets the data object: the oid carrying the most
       pages in the primed generation. *)
    let oid, npages =
      List.fold_left
        (fun (boid, bn) oid ->
          let n =
            Store.fold_pages store gen0 ~oid ~init:0 ~f:(fun acc _ _ -> acc + 1)
          in
          if n > bn then (oid, n) else (boid, bn))
        (-1, 0) (Store.oids store gen0)
    in
    let pindexes =
      Array.of_list
        (List.rev
           (Store.fold_pages store gen0 ~oid ~init:[] ~f:(fun acc i _ -> i :: acc)))
    in
    (* Deterministic skewed sampler (splitmix-style LCG): 80% of reads
       hit the first 20% of the page space. *)
    let rng = ref 0x2545F4914F6CDD1DL in
    let next () =
      rng := Int64.add (Int64.mul !rng 6364136223846793005L) 1442695040888963407L;
      float_of_int (Int64.to_int (Int64.shift_right_logical !rng 11))
      /. 9007199254740992.
    in
    let pick () =
      let hot = max 1 (npages / 5) in
      let idx =
        if next () < 0.8 then int_of_float (next () *. float_of_int hot)
        else hot + int_of_float (next () *. float_of_int (max 1 (npages - hot)))
      in
      pindexes.(min idx (Array.length pindexes - 1))
    in
    let lat = Stats.create () in
    let missed = ref 0 in
    let stride = Duration.microseconds 230 in
    let deadline = Duration.add (Machine.now m) (Duration.milliseconds 120) in
    while Duration.(Machine.now m < deadline) do
      Machine.run m stride;
      let gen = match Store.latest store with Some g -> g | None -> gen0 in
      let t0 = Machine.now m in
      match Store.read_page store gen ~oid ~pindex:(pick ()) with
      | Some _ -> Stats.add_duration lat (Duration.sub (Machine.now m) t0)
      | None -> incr missed
    done;
    Machine.drain_storage m;
    let mm = Machine.metrics m in
    let flush_mean = Metrics.hist_mean (Metrics.histogram mm "ckpt.flush_us") in
    let stop_p99 = Metrics.quantile (Metrics.histogram mm "ckpt.stop_us") 0.99 in
    let ss = Devarray.sched_stats m.Machine.nvme in
    let p50 = Stats.percentile lat 50.0
    and p99 = Stats.percentile lat 99.0
    and pmax = Stats.percentile lat 100.0 in
    json_record "qos-sweep"
      [
        (label ^ "_reads", jint (Stats.count lat));
        (label ^ "_reads_missed", jint !missed);
        (label ^ "_read_mean_us", jnum (Stats.mean lat));
        (label ^ "_read_p50_us", jnum p50);
        (label ^ "_read_p99_us", jnum p99);
        (label ^ "_read_max_us", jnum pmax);
        (label ^ "_flush_mean_us", jnum flush_mean);
        (label ^ "_stop_p99_us", jnum stop_p99);
        (label ^ "_fg_gap_fills", jint ss.Iosched.s_fg_gap_fills);
        (label ^ "_fg_wait_us", jnum ss.Iosched.s_fg_wait_us);
      ];
    row "%8s %8d %12.1f %12.1f %12.1f %12.1f %12.1f %10d\n" label
      (Stats.count lat) p50 p99 pmax flush_mean stop_p99 ss.Iosched.s_fg_gap_fills;
    (p99, flush_mean, stop_p99)
  in
  let fifo_p99, fifo_flush, fifo_stop = measure ~label:"fifo" ~io_sched:Iosched.Fifo in
  let wdrr_p99, wdrr_flush, wdrr_stop =
    measure ~label:"wdrr" ~io_sched:Iosched.default_wdrr
  in
  let improve_pct =
    if fifo_p99 > 0. then (fifo_p99 -. wdrr_p99) /. fifo_p99 *. 100. else Float.nan
  in
  let flush_cost_pct =
    if fifo_flush > 0. then (wdrr_flush -. fifo_flush) /. fifo_flush *. 100.
    else Float.nan
  in
  let stop_drift_pct =
    if fifo_stop > 0. then
      Float.abs (wdrr_stop -. fifo_stop) /. fifo_stop *. 100.
    else 0.
  in
  (* Acceptance: scheduler on -> foreground p99 at least 30% lower, the
     flush at most 10% slower, the barrier (stop time) untouched within
     5% — the scheduler reorders device service, never the barrier. *)
  let improve_ok = Float.is_finite improve_pct && improve_pct >= 30. in
  let flush_ok = Float.is_finite flush_cost_pct && flush_cost_pct <= 10. in
  let stop_ok = stop_drift_pct <= 5. in
  json_record "qos-sweep"
    [
      ("p99_improve_pct", jnum improve_pct);
      ("flush_cost_pct", jnum flush_cost_pct);
      ("stop_drift_pct", jnum stop_drift_pct);
      ("qos_p99_improve_flag", jint (if improve_ok then 1 else 0));
      ("qos_flush_flag", jint (if flush_ok then 1 else 0));
      ("qos_stop_flag", jint (if stop_ok then 1 else 0));
    ];
  row "\nforeground p99 read latency: %.1f us fifo -> %.1f us wdrr (%.1f%% lower, %s)\n"
    fifo_p99 wdrr_p99 improve_pct
    (if improve_ok then "ok" else "BELOW 30% TARGET");
  row "flush completion: %.1f us -> %.1f us (%+.1f%%, %s)\n" fifo_flush wdrr_flush
    flush_cost_pct
    (if flush_ok then "within the 10% budget" else "OVER 10% BUDGET");
  row "p99 stop time: %.1f us vs %.1f us (drift %.1f%%, %s)\n" fifo_stop wdrr_stop
    stop_drift_pct
    (if stop_ok then "unchanged" else "PERTURBED");
  if not (improve_ok && flush_ok && stop_ok) then begin
    prerr_endline "qos-sweep: scheduler acceptance criteria not met";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let all_targets =
  [
    ("table3", table3);
    ("table4", table4);
    ("freq-sweep", freq_sweep);
    ("dedup", dedup);
    ("extcons", extcons);
    ("lazy-restore", lazy_restore);
    ("criu", criu);
    ("kv-modes", kv_modes);
    ("restore-scale", restore_scale);
    ("shared-cow", shared_cow);
    ("hdd", hdd);
    ("stripe-sweep", stripe_sweep);
    ("fault-sweep", fault_sweep);
    ("phase-breakdown", phase_breakdown);
    ("provenance", provenance);
    ("ckpt-rate", ckpt_rate);
    ("repl-sweep", repl_sweep);
    ("critpath", critpath);
    ("qos-sweep", qos_sweep);
  ]

let () =
  let rec parse names = function
    | [] -> List.rev names
    | "--json" :: path :: rest ->
      json_path := Some path;
      parse names rest
    | [ "--json" ] ->
      prerr_endline "--json requires a file argument";
      exit 2
    | name :: rest -> parse (name :: names) rest
  in
  let requested =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map fst all_targets
    | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name all_targets with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown bench target %S; targets: %s\n" name
          (String.concat " " (List.map fst all_targets));
        exit 2)
    requested;
  json_write ()
