(* End-to-end tests of the single level store: transparent
   checkpointing of running programs, restore after crash, rollback,
   incremental-vs-full behaviour, external consistency, cloning,
   migration over the network, the persistent log, and the CRIU-style
   baseline comparison. *)

open Aurora_simtime
open Aurora_vm
open Aurora_posix
open Aurora_proc
open Aurora_objstore
open Aurora_sls

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Programs                                                            *)
(* ------------------------------------------------------------------ *)

(* Writes value (1000 + step) into page (step mod reg2) of its own
   mapping each step; exits after reg3 steps. reg1 = base vpn
   (self-allocated on first step), reg4 = steps done. *)
let () =
  Program.register ~name:"sls/walker" (fun k p th ->
      let ctx = th.Thread.context in
      if ctx.Context.pc = 0 then begin
        let npages = Context.reg_int ctx 2 in
        let e = Syscall.mmap_anon k p ~npages in
        Context.set_reg_int ctx 1 e.Vmmap.start_vpn;
        ctx.Context.pc <- 1;
        Program.Continue
      end
      else begin
        let base = Context.reg_int ctx 1 in
        let npages = Context.reg_int ctx 2 in
        let limit = Context.reg_int ctx 3 in
        let step = Context.reg_int ctx 4 in
        if step >= limit then Program.Exit_program 0
        else begin
          Syscall.mem_write k p ~vpn:(base + (step mod npages)) ~offset:0
            ~value:(Int64.of_int (1000 + step));
          Context.set_reg_int ctx 4 (step + 1);
          Program.Continue
        end
      end)

(* A tiny server over a socketpair: increments a counter in memory for
   every byte received and echoes the count back. Never exits. reg1 =
   fd, reg2 = vpn of counter page (self-allocated). *)
let () =
  Program.register ~name:"sls/counter-server" (fun k p th ->
      let ctx = th.Thread.context in
      if ctx.Context.pc = 0 then begin
        let e = Syscall.mmap_anon k p ~npages:1 in
        Context.set_reg_int ctx 2 e.Vmmap.start_vpn;
        ctx.Context.pc <- 1;
        Program.Continue
      end
      else begin
        let fd = Context.reg_int ctx 1 in
        match Syscall.read k p fd ~len:1 with
        | `Data _ ->
          let count = Context.reg_int ctx 5 + 1 in
          Context.set_reg_int ctx 5 count;
          Syscall.mem_write k p ~vpn:(Context.reg_int ctx 2) ~offset:0
            ~value:(Int64.of_int count);
          (match Syscall.write k p fd (string_of_int count) with
           | `Written _ | `Would_block | `Broken -> ());
          Program.Continue
        | `Would_block -> (
          match Fd.get p.Process.fdtable fd with
          | Some { Fd.kind = Fd.Obj oid; _ } -> Program.Block (Thread.Wait_read oid)
          | _ -> Program.Exit_program 1)
        | `Eof -> Program.Exit_program 0
      end)

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let spawn_walker m ~npages ~limit =
  let k = m.Machine.kernel in
  let c = Kernel.new_container k ~name:"app" in
  let p = Kernel.spawn k ~container:c.Container.cid ~name:"walker" ~program:"sls/walker" () in
  let ctx = (Process.main_thread p).Thread.context in
  Context.set_reg_int ctx 2 npages;
  Context.set_reg_int ctx 3 limit;
  (c, p)

let page_value m pid vpn =
  let p = Kernel.proc_exn m.Machine.kernel pid in
  Vmmap.read p.Process.vm ~vpn

(* ------------------------------------------------------------------ *)
(* Checkpoint mechanics                                                *)
(* ------------------------------------------------------------------ *)

let test_full_vs_incremental_breakdown () =
  let m = Machine.create () in
  let c, p = spawn_walker m ~npages:256 ~limit:100_000 in
  ignore p;
  let g = Machine.persist m (`Container c.Container.cid) in
  (* Let it populate all pages. *)
  Machine.run m (Duration.milliseconds 2);
  let full = Machine.checkpoint_now m g ~mode:`Full () in
  check_int "full captured all pages" 256 full.Types.pages_captured;
  (* Touch a handful of pages, then incremental. *)
  Machine.run m (Duration.microseconds 50);
  let incr = Machine.checkpoint_now m g ~mode:`Incremental () in
  check_bool "incremental captured fewer" true
    (incr.Types.pages_captured < full.Types.pages_captured);
  check_bool "incremental stop time smaller" true
    Duration.(incr.Types.stop_time < full.Types.stop_time);
  (* Metadata copy is roughly the same in both cases (paper: "the cost
     of grabbing metadata is the same"). *)
  let ratio =
    Duration.ratio full.Types.metadata_copy incr.Types.metadata_copy
  in
  check_bool "metadata cost comparable" true (ratio > 0.8 && ratio < 1.25)

let test_periodic_checkpoints_fire () =
  let m = Machine.create () in
  let c, _ = spawn_walker m ~npages:32 ~limit:1_000_000 in
  let g = Machine.persist m ~interval:(Duration.milliseconds 10) (`Container c.Container.cid) in
  Machine.run m (Duration.milliseconds 105);
  (* ~10 checkpoints in 105 ms. *)
  let n = Ckpt_spans.count m g in
  check_bool "about ten checkpoints" true (n >= 8 && n <= 12);
  check_bool "has generations" true (Store.generations m.Machine.disk_store <> [])

let test_incremental_dirty_only () =
  (* After a checkpoint, an idle app's next incremental captures 0
     pages. *)
  let m = Machine.create () in
  let c, p = spawn_walker m ~npages:16 ~limit:64 in
  let g = Machine.persist m (`Container c.Container.cid) in
  Machine.run_until_idle m;
  check_int "walker done" 0 (Option.get p.Process.exit_status);
  ignore (Machine.checkpoint_now m g ());
  let second = Machine.checkpoint_now m g () in
  check_int "nothing dirty" 0 second.Types.pages_captured

let test_checkpoint_gc_history () =
  let m = Machine.create () in
  m.Machine.history_window <- 3;
  let c, _ = spawn_walker m ~npages:16 ~limit:1_000_000 in
  let g = Machine.persist m ~interval:(Duration.milliseconds 5) (`Container c.Container.cid) in
  ignore g;
  Machine.run m (Duration.milliseconds 100);
  let gens = Store.generations m.Machine.disk_store in
  check_bool "history bounded" true (List.length gens <= 4)

let test_detach_memory_backend () =
  let m = Machine.create () in
  let c, _ = spawn_walker m ~npages:16 ~limit:1_000_000 in
  let g = Machine.persist m (`Container c.Container.cid) in
  Machine.attach m g m.Machine.mem_store;
  Machine.run m (Duration.microseconds 50);
  ignore (Machine.checkpoint_now m g ());
  let before = Store.generations m.Machine.mem_store in
  check_bool "the attached memory store is checkpointed" true (before <> []);
  Machine.detach m g m.Machine.mem_store;
  check_int "only the disk backend is left" 1 (List.length g.Types.backends);
  Machine.run m (Duration.microseconds 50);
  ignore (Machine.checkpoint_now m g ());
  Alcotest.(check (list int)) "the memory store gained no generation" before
    (Store.generations m.Machine.mem_store)

(* Words a checkpoint allocates per captured page: minor + major -
   promoted over one [Machine.checkpoint_now], as twoclock counts them.
   The fixture is the bench's Redis one (a write-heavy kvstore, 128
   ops a step, preloaded, beside ~70 small mappings, 30 open files and
   four threads), with ~14% of its pages dirtied before each
   checkpoint, as Table 3 does. Arming, ingest and the device
   submission carry the pages as int and byte columns, so the words
   left are the B+tree's keys and leaf copies, a boxed seed per fresh
   block, and the dedup index's growth. On OCaml 5.1: a Full
   checkpoint of the 16 MiB fixture reads 66.8 words a page (153.3
   with a record per page and list-based submission), and an
   incremental one of the 64 MiB fixture after a Full one 154.3
   (257.9). The bounds, 90 and 200, leave 35% and 30% above the column
   path and sit well below the list-based one. *)
let redis_fixture ~mib =
  let m = Machine.create () in
  let k = m.Machine.kernel in
  let c = Kernel.new_container k ~name:"redis" in
  let nkeys = mib * 1024 * 1024 / 8 in
  let cfg =
    { (Aurora_apps.Kvstore.default_config ~nkeys ()) with
      Aurora_apps.Kvstore.spec = Aurora_apps.Workload.write_heavy ~nkeys;
      ops_per_step = 128;
      preload = true }
  in
  let p = Aurora_apps.Kvstore.spawn k ~container:c.Container.cid cfg in
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
  ignore (Scheduler.step_all k);
  let g = Machine.persist m (`Container c.Container.cid) in
  let dirty () =
    List.fold_left (fun n o -> n + Vmobject.dirty_count o) 0 (Vmmap.distinct_objects p.Process.vm)
  in
  let target = Vmmap.resident_pages p.Process.vm * 14 / 100 in
  let dirty_14pct () =
    let guard = ref 0 in
    while dirty () < target && !guard < 400_000 do
      ignore (Scheduler.step_all k);
      incr guard
    done
  in
  (m, g, dirty_14pct)

(* A write-heavy kvstore of [mib] MiB, preloaded and persisted as its
   container, on a machine of its own. *)
let kv_fixture ?storage_blocks ?interval ~mib () =
  let m = Machine.create ?storage_blocks () in
  let k = m.Machine.kernel in
  let c = Kernel.new_container k ~name:"kv" in
  let nkeys = mib * 1024 * 1024 / 8 in
  let cfg =
    { (Aurora_apps.Kvstore.default_config ~nkeys ()) with
      Aurora_apps.Kvstore.spec = Aurora_apps.Workload.write_heavy ~nkeys;
      ops_per_step = 128;
      preload = true }
  in
  let p = Aurora_apps.Kvstore.spawn k ~container:c.Container.cid cfg in
  ignore (Scheduler.step_all k);
  let g = Machine.persist m ?interval (`Container c.Container.cid) in
  (m, g, p, cfg)

(* A bounded device keeps taking checkpoints while history collection
   frees blocks: once fresh space runs out, a checkpoint's extents take
   the freed blocks. 40,000 blocks give this kvstore fresh space for
   about 14 checkpoints, and a simulated second takes about 50. *)
let test_bounded_device_reuses_freed_blocks () =
  let m, _, _, _ =
    kv_fixture ~storage_blocks:40_000 ~interval:(Duration.milliseconds 10) ~mib:16 ()
  in
  Machine.run m (Duration.seconds 1);
  let count name = Metrics.count (Metrics.counter (Machine.metrics m) name) in
  check_bool "checkpoints were taken" true (count "ckpt.count" >= 20);
  check_int "no checkpoint degraded" 0 (count "ckpt.degraded");
  check_bool "the store stays within the device" true
    ((Store.stats m.Machine.disk_store).Store.live_blocks <= 40_000)

(* A restored object is new to the kernel, so its next checkpoint must
   capture its pages even when incremental: an object's first arming
   captures every page it holds. Under each policy, and for a clone,
   an incremental checkpoint right after the restore captures the
   region, and a restore of that checkpoint gives the region back. *)
let test_checkpoint_after_restore_keeps_pages () =
  List.iter
    (fun (what, policy, clone) ->
      let m, g, p, cfg = kv_fixture ~mib:16 () in
      let k = m.Machine.kernel in
      let before = Aurora_apps.Kvstore.region_digest k p cfg in
      ignore (Machine.checkpoint_now m g ~mode:`Full ());
      let pid =
        if clone then List.hd (fst (Machine.clone_group m g ~policy ()))
        else begin
          ignore (Machine.restore_group m g ~policy ());
          p.Process.pid
        end
      in
      let b = Machine.checkpoint_now m g ~mode:`Incremental () in
      check_bool
        (Printf.sprintf "%s: the incremental captures the region (%d pages)" what
           b.Types.pages_captured)
        true
        (b.Types.pages_captured >= Aurora_apps.Kvstore.npages cfg);
      ignore (Machine.restore_group m g ~policy ());
      check_bool (what ^ ": restored again, the region is intact") true
        (Int64.equal before
           (Aurora_apps.Kvstore.region_digest k (Kernel.proc_exn k pid) cfg)))
    [ ("eager", Types.Eager, false); ("lazy", Types.Lazy, false);
      ("lazy prefetch", Types.Lazy_prefetch, false); ("clone", Types.Lazy_prefetch, true) ]

let checkpoint_words_per_page m g ~mode =
  Gc.minor ();
  let minor0, promoted0, major0 = Gc.counters () in
  let b = Machine.checkpoint_now m g ~mode () in
  Gc.minor ();
  let minor1, promoted1, major1 = Gc.counters () in
  check_bool "the checkpoint committed" true (b.Types.status = `Ok);
  (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))
  /. float_of_int b.Types.pages_captured

let test_checkpoint_words_per_page () =
  let m, g, dirty_14pct = redis_fixture ~mib:16 in
  dirty_14pct ();
  let full = checkpoint_words_per_page m g ~mode:`Full in
  check_bool (Printf.sprintf "16 MiB Full: %.1f words a page (bound 90)" full) true (full <= 90.);
  let m, g, dirty_14pct = redis_fixture ~mib:64 in
  dirty_14pct ();
  ignore (Machine.checkpoint_now m g ~mode:`Full ());
  dirty_14pct ();
  let incr = checkpoint_words_per_page m g ~mode:`Incremental in
  check_bool (Printf.sprintf "64 MiB incremental: %.1f words a page (bound 200)" incr) true
    (incr <= 200.)

(* With a memory backend or a hot standby attached, shipping is the
   checkpoint's cost beyond the stop: with the pipeline drained first,
   the clock's advance inside [checkpoint_now] is the stop plus the
   backpressure plus the reported ship, within 1%, for a Full and an
   incremental checkpoint, and each leaves one [ckpt.ship] span. With
   nothing attached the ship is zero and leaves no span. *)
let test_ship_time_reported () =
  let backpressure_us m =
    Metrics.hist_sum (Metrics.histogram (Machine.metrics m) "ckpt.backpressure_us")
  in
  let ship_spans m =
    List.length
      (List.filter
         (fun (s : Span.span) -> String.equal s.Span.name "ckpt.ship")
         (Span.spans (Machine.spans m)))
  in
  List.iter
    (fun (what, attach) ->
      let m, g, dirty_14pct = redis_fixture ~mib:16 in
      attach m g;
      List.iter
        (fun (mode_name, mode) ->
          dirty_14pct ();
          Machine.drain_storage m;
          let t0 = Machine.now m and bp0 = backpressure_us m and spans0 = ship_spans m in
          let b = Machine.checkpoint_now m g ~mode () in
          let advance = Duration.to_us (Duration.sub (Machine.now m) t0) in
          let ship = Duration.to_us b.Types.ship in
          let parts = Duration.to_us b.Types.stop_time +. (backpressure_us m -. bp0) +. ship in
          let msg = Printf.sprintf "%s, %s" what mode_name in
          check_bool
            (Printf.sprintf "%s: clock %.1f us, stop + backpressure + ship %.1f us" msg
               advance parts)
            true
            (Float.abs (advance -. parts) <= 0.01 *. advance);
          let attached = what <> "nothing attached" in
          check_bool (msg ^ ": a ship time") attached (ship > 0.);
          check_int (msg ^ ": ckpt.ship spans") (if attached then 1 else 0)
            (ship_spans m - spans0))
        [ ("Full", `Full); ("incremental", `Incremental) ])
    [ ("nothing attached", fun _ _ -> ());
      ("memory backend", fun m g -> Machine.attach m g m.Machine.mem_store);
      ("hot standby", fun m g -> ignore (Machine.attach_standby m g)) ]

(* Regression for the pipelined quiesce: draining checkpoint state
   must await only the epochs' own writes, not the device queues'
   [busy_until] — unrelated raw traffic on the same array used to
   inflate the wait. *)
let test_drain_ignores_unrelated_io () =
  let m = Machine.create ~stripes:2 () in
  let c, _ = spawn_walker m ~npages:32 ~limit:1_000_000 in
  let g = Machine.persist m (`Container c.Container.cid) in
  Machine.run m (Duration.milliseconds 1);
  let b = Machine.checkpoint_now m g () in
  Machine.drain_storage m;
  check_bool "checkpoint retired" true
    Duration.(b.Types.durable_at <= Machine.now m);
  (* A large background write far outside the store's allocations:
     ~100 ms of device time the checkpoint pipeline does not own. *)
  let raw_done =
    Aurora_device.Devarray.write_async_arr m.Machine.nvme
      (Array.init 50_000 (fun i -> 1_000_000 + i))
      (Array.make 50_000 Aurora_device.Blockdev.Zero)
  in
  Machine.drain_storage m;
  check_bool "drain does not await unrelated io" true
    Duration.(Machine.now m < raw_done)

let test_checkpoint_not_gated_by_raw_io () =
  (* A checkpoint issued while a huge unrelated write is queued must
     still return at barrier cost: its epoch's durability is tracked
     per generation and waited on only under backpressure. *)
  let m = Machine.create () in
  let c, _ = spawn_walker m ~npages:32 ~limit:1_000_000 in
  let g = Machine.persist m (`Container c.Container.cid) in
  Machine.run m (Duration.milliseconds 1);
  let raw_done =
    Aurora_device.Devarray.write_async_arr m.Machine.nvme
      (Array.init 50_000 (fun i -> 1_000_000 + i))
      (Array.make 50_000 Aurora_device.Blockdev.Zero)
  in
  let before = Machine.now m in
  let b = Machine.checkpoint_now m g () in
  check_bool "checkpoint committed" true (b.Types.status = `Ok);
  check_bool "barrier returns promptly" true
    Duration.(Duration.sub (Machine.now m) before < Duration.milliseconds 5);
  check_bool "stop time unaffected" true
    Duration.(b.Types.stop_time < Duration.milliseconds 1);
  check_bool "clock still before raw completion" true
    Duration.(Machine.now m < raw_done)

let test_full_device_degrades_checkpoint () =
  (* A full disk must degrade checkpoints — abort the open generation,
     keep serving the last good one — never crash the machine. *)
  let m = Machine.create ~storage_blocks:256 () in
  m.Machine.history_window <- 1000; (* disable history gc: let it fill *)
  let c, p = spawn_walker m ~npages:8 ~limit:1_000_000 in
  let g = Machine.persist m (`Container c.Container.cid) in
  Machine.run m (Duration.milliseconds 1);
  let first = Machine.checkpoint_now m g () in
  check_bool "first checkpoint lands" true (first.Types.status = `Ok);
  let last_good = ref first.Types.gen in
  let degraded = ref None in
  (try
     for _ = 1 to 60 do
       Machine.run m (Duration.milliseconds 1);
       let b = Machine.checkpoint_now m g ~mode:`Full () in
       match b.Types.status with
       | `Ok -> last_good := b.Types.gen
       | `Degraded reason -> degraded := Some (b, reason); raise Exit
     done
   with Exit -> ());
  (match !degraded with
   | None -> Alcotest.fail "device never filled: test device too big"
   | Some (b, reason) ->
     check_bool "reason mentions space" true
       (String.length reason > 0);
     check_bool "durable_at pinned to the barrier" true
       (Duration.equal b.Types.durable_at b.Types.barrier_at);
     check_bool "last_gen still the last good checkpoint" true
       (g.Types.last_gen = Some !last_good));
  (* The store is consistent, the good history is intact, and the
     machine keeps running and restoring. *)
  let store = m.Machine.disk_store in
  check_bool "last good generation present" true
    (List.mem !last_good (Store.generations store));
  let r = Store.fsck store in
  check_bool "fsck clean after degrade" true (Store.fsck_ok r);
  Machine.run m (Duration.milliseconds 1);
  check_bool "application still running" true (p.Process.exit_status = None);
  let pids, _ = Machine.restore_group m g ~gen:!last_good () in
  check_int "restore from the survivor" 1 (List.length pids)

(* ------------------------------------------------------------------ *)
(* Restore                                                             *)
(* ------------------------------------------------------------------ *)

let test_restore_after_crash () =
  let m = Machine.create () in
  let c, p = spawn_walker m ~npages:64 ~limit:1_000_000 in
  let pid = p.Process.pid in
  let g = Machine.persist m (`Container c.Container.cid) in
  Machine.run m (Duration.milliseconds 1);
  let b = Machine.checkpoint_now m g () in
  Store.wait_durable m.Machine.disk_store b.Types.durable_at;
  (* Remember the walker's memory at checkpoint time... run further so
     post-checkpoint state differs, then crash. *)
  let ctx = (Process.main_thread p).Thread.context in
  let base = Context.reg_int ctx 1 in
  let steps_at_ckpt = Context.reg_int ctx 4 in
  Machine.run m (Duration.milliseconds 1);
  check_bool "app progressed past checkpoint" true (Context.reg_int ctx 4 > steps_at_ckpt);
  Machine.crash m;
  let m' = Machine.recover m in
  (* The group must be re-registered on the new machine. *)
  let g' = Machine.persist m' (`Container c.Container.cid) in
  g'.Types.target <- `Container c.Container.cid;
  let pids, breakdown = Machine.restore_group m' g' ~gen:b.Types.gen () in
  check_int "one process" 1 (List.length pids);
  let pid' = List.hd pids in
  check_int "same pid" pid pid';
  let p' = Kernel.proc_exn m'.Machine.kernel pid' in
  let ctx' = (Process.main_thread p').Thread.context in
  check_int "execution state restored" steps_at_ckpt (Context.reg_int ctx' 4);
  check_int "registers restored" base (Context.reg_int ctx' 1);
  check_bool "restore is sub-millisecond-ish" true
    Duration.(breakdown.Types.total_latency < Duration.milliseconds 20);
  (* The program resumes oblivious to the interruption and finishes. *)
  Context.set_reg_int ctx' 3 (steps_at_ckpt + 10);
  ignore (Scheduler.run_until_idle m'.Machine.kernel);
  check_int "resumed and exited" 0 (Option.get p'.Process.exit_status)

let test_restore_memory_contents () =
  let m = Machine.create () in
  let c, p = spawn_walker m ~npages:16 ~limit:16 in
  let g = Machine.persist m (`Container c.Container.cid) in
  Machine.run_until_idle m;
  (* All 16 pages written with 1000+i; process exited, but memory died
     with it — so checkpoint BEFORE it exits instead. Rebuild. *)
  ignore p;
  ignore g;
  let m2 = Machine.create () in
  let c2, p2 = spawn_walker m2 ~npages:16 ~limit:1_000_000 in
  let g2 = Machine.persist m2 (`Container c2.Container.cid) in
  Machine.run m2 (Duration.microseconds 200);
  let ctx = (Process.main_thread p2).Thread.context in
  let base = Context.reg_int ctx 1 in
  let expected = List.init 16 (fun i -> page_value m2 p2.Process.pid (base + i)) in
  let b = Machine.checkpoint_now m2 g2 () in
  Store.wait_durable m2.Machine.disk_store b.Types.durable_at;
  Machine.crash m2;
  let m3 = Machine.recover m2 in
  let g3 = Machine.persist m3 (`Container c2.Container.cid) in
  let pids, _ = Machine.restore_group m3 g3 ~gen:b.Types.gen ~policy:Types.Eager () in
  let p3 = Kernel.proc_exn m3.Machine.kernel (List.hd pids) in
  List.iteri
    (fun i want ->
      let got = Vmmap.read p3.Process.vm ~vpn:(base + i) in
      check_bool (Printf.sprintf "page %d content" i) true (Content.equal want got))
    expected

let test_restore_policies_fault_behavior () =
  let m = Machine.create () in
  let c, p = spawn_walker m ~npages:128 ~limit:1_000_000 in
  let g = Machine.persist m (`Container c.Container.cid) in
  Machine.run m (Duration.milliseconds 1);
  let ctx = (Process.main_thread p).Thread.context in
  let base = Context.reg_int ctx 1 in
  let b = Machine.checkpoint_now m g () in
  Store.wait_durable m.Machine.disk_store b.Types.durable_at;
  let restore_with policy =
    let m' = Machine.recover (let () = Machine.crash m in m) in
    let g' = Machine.persist m' (`Container c.Container.cid) in
    let pids, breakdown = Machine.restore_group m' g' ~gen:b.Types.gen ~policy () in
    (m', Kernel.proc_exn m'.Machine.kernel (List.hd pids), breakdown)
  in
  (* Lazy: nothing resident, faults on access. *)
  let _, p_lazy, bd_lazy = restore_with Types.Lazy in
  check_int "lazy: no resident pages" 0 bd_lazy.Types.pages_restored;
  check_bool "lazy: pages mapped" true (bd_lazy.Types.pages_lazy > 0);
  let faults_before = (Vmmap.faults p_lazy.Process.vm).Vmmap.major in
  ignore (Vmmap.read p_lazy.Process.vm ~vpn:base);
  check_int "lazy: access faults" (faults_before + 1)
    (Vmmap.faults p_lazy.Process.vm).Vmmap.major;
  (* Note: crash invalidated m; rebuild a full scenario for Eager. *)
  ()

let test_restore_eager_no_faults () =
  let m = Machine.create () in
  let c, p = spawn_walker m ~npages:64 ~limit:1_000_000 in
  let g = Machine.persist m (`Container c.Container.cid) in
  Machine.run m (Duration.milliseconds 1);
  let ctx = (Process.main_thread p).Thread.context in
  let base = Context.reg_int ctx 1 in
  let b = Machine.checkpoint_now m g () in
  Store.wait_durable m.Machine.disk_store b.Types.durable_at;
  Machine.crash m;
  let m' = Machine.recover m in
  let g' = Machine.persist m' (`Container c.Container.cid) in
  let pids, bd = Machine.restore_group m' g' ~gen:b.Types.gen ~policy:Types.Eager () in
  check_bool "eager: pages resident" true (bd.Types.pages_restored >= 64);
  check_int "eager: nothing lazy" 0 bd.Types.pages_lazy;
  let p' = Kernel.proc_exn m'.Machine.kernel (List.hd pids) in
  ignore (Vmmap.read p'.Process.vm ~vpn:base);
  check_int "eager: no major faults" 0 (Vmmap.faults p'.Process.vm).Vmmap.major

(* Bit rot on the primary copy of one page that the restore reads in a
   batch and one it peeks, under verify and mirror. Whatever the policy,
   the restored process reads the original contents. Each bad block
   fails its checksum twice (the batch read or the peek, then the
   verified re-read) and is healed from its mirror once, and fsck stays
   clean. *)
let test_restore_heals_bit_rot () =
  let open Aurora_device in
  (* A fault plan turns verify and mirror on; this one never fires. *)
  let m = Machine.create ~faults:(Fault.plan ~seed:1L ~transient_write:1e-12 ()) () in
  let k = m.Machine.kernel and store = m.Machine.disk_store in
  let c = Kernel.new_container k ~name:"app" in
  let p = Kernel.spawn k ~container:c.Container.cid ~name:"rot" ~program:"none" () in
  let npages = 64 in
  let e = Syscall.mmap_anon k p ~npages in
  let base = e.Vmmap.start_vpn and obj = e.Vmmap.obj in
  for i = 0 to npages - 1 do
    Syscall.mem_write k p ~vpn:(base + i) ~offset:0 ~value:(Int64.of_int (1000 + i))
  done;
  let expected = List.init npages (fun i -> Vmmap.read p.Process.vm ~vpn:(base + i)) in
  (* Only page 3 stays hot: Lazy_prefetch reads it and peeks page 10. *)
  for _ = 1 to 8 do
    Vmobject.age_heat obj
  done;
  ignore (Syscall.mem_read k p ~vpn:(base + 3) ~offset:0);
  let g = Machine.persist m (`Container c.Container.cid) in
  let b = Machine.checkpoint_now m g () in
  Store.wait_durable store b.Types.durable_at;
  let map = Store.page_map store b.Types.gen ~oid:(Oidspace.vmobj (Vmobject.oid obj)) in
  let block_of page =
    let pindex = e.Vmmap.obj_offset + page in
    let rec find i = if map.Store.pindexes.(i) = pindex then map.Store.blocks.(i) else find (i + 1) in
    find 0
  in
  let hot = block_of 3 and cold = block_of 10 in
  List.iter
    (fun (label, policy) ->
      Devarray.write m.Machine.nvme hot (Blockdev.Seed 666L);
      Devarray.write m.Machine.nvme cold (Blockdev.Seed 667L);
      Store.drop_caches store;
      let io0 = Store.io_stats store in
      let pids, _ = Machine.restore_group m g ~gen:b.Types.gen ~policy () in
      let io1 = Store.io_stats store in
      let p' = Kernel.proc_exn k (List.hd pids) in
      let resident page =
        match Vmmap.entry_at p'.Process.vm (base + page) with
        | Some e' -> (
          let pindex = e'.Vmmap.obj_offset + page in
          Vmobject.status (Vmobject.resolve e'.Vmmap.obj pindex) pindex = Vmobject.Resident)
        | None -> false
      in
      check_bool (label ^ ": page 3 read in the batch") (policy <> Types.Lazy) (resident 3);
      check_bool (label ^ ": page 10 peeked") (policy <> Types.Eager) (not (resident 10));
      List.iteri
        (fun i want ->
          check_bool (Printf.sprintf "%s: page %d intact" label i) true
            (Content.equal want (Vmmap.read p'.Process.vm ~vpn:(base + i))))
        expected;
      check_int (label ^ ": checksum failures") 4
        (io1.Store.checksum_failures - io0.Store.checksum_failures);
      check_int (label ^ ": healed from the mirror") 2
        (io1.Store.repaired_from_mirror - io0.Store.repaired_from_mirror);
      check_int (label ^ ": nothing lost") 0 io1.Store.lost_blocks;
      let r = Store.fsck store in
      check_bool (label ^ ": fsck clean") true (Store.fsck_ok r))
    [ ("eager", Types.Eager); ("lazy", Types.Lazy); ("lazy+prefetch", Types.Lazy_prefetch) ]

let test_rollback () =
  let m = Machine.create () in
  let c, p = spawn_walker m ~npages:8 ~limit:1_000_000 in
  let g = Machine.persist m (`Container c.Container.cid) in
  Machine.run m (Duration.microseconds 500);
  let steps_at_ckpt =
    Context.reg_int (Process.main_thread p).Thread.context 4
  in
  ignore (Api.sls_checkpoint m g ());
  Machine.run m (Duration.microseconds 500);
  check_bool "progressed" true
    (Context.reg_int (Process.main_thread p).Thread.context 4 > steps_at_ckpt);
  let pids = Api.sls_rollback m g in
  let p' = Kernel.proc_exn m.Machine.kernel (List.hd pids) in
  let ctx' = (Process.main_thread p').Thread.context in
  check_int "state rolled back" steps_at_ckpt (Context.reg_int ctx' 4);
  check_bool "rollback notification" true (Context.reg ctx' 15 = 1L)

let test_clone_scaleout () =
  let m = Machine.create () in
  let c, p = spawn_walker m ~npages:32 ~limit:1_000_000 in
  let g = Machine.persist m (`Container c.Container.cid) in
  Machine.run m (Duration.milliseconds 1);
  ignore (Machine.checkpoint_now m g ());
  let clones =
    List.init 5 (fun _ -> fst (Machine.clone_group m g ())) |> List.concat
  in
  check_int "five clones" 5 (List.length clones);
  check_bool "fresh pids" true (List.for_all (fun pid -> pid <> p.Process.pid) clones);
  (* Clones run independently. *)
  ignore (Scheduler.run_until_idle m.Machine.kernel) |> ignore;
  let distinct = List.sort_uniq Int.compare clones in
  check_int "distinct pids" 5 (List.length distinct)

let test_restore_preserves_pipe () =
  (* Checkpoint a producer/consumer pair mid-flight with data buffered
     in the pipe; restore both; the consumer drains everything. *)
  let m = Machine.create () in
  let k = m.Machine.kernel in
  let c = Kernel.new_container k ~name:"pair" in
  let prod = Kernel.spawn k ~container:c.Container.cid ~name:"prod" ~program:"test-sls/producer" () in
  let cons = Kernel.spawn k ~container:c.Container.cid ~name:"cons" ~program:"test-sls/consumer" () in
  (* Inline programs for this test. *)
  Program.register ~name:"test-sls/producer" (fun k p th ->
      let ctx = th.Thread.context in
      let wfd = Context.reg_int ctx 1 in
      let total = Context.reg_int ctx 2 in
      if ctx.Context.pc >= total then begin
        Syscall.close k p wfd;
        Program.Exit_program 0
      end
      else
        match Syscall.write k p wfd "x" with
        | `Written _ ->
          ctx.Context.pc <- ctx.Context.pc + 1;
          Program.Continue
        | `Would_block -> Program.Yield
        | `Broken -> Program.Exit_program 1);
  Program.register ~name:"test-sls/consumer" (fun k p th ->
      let ctx = th.Thread.context in
      let rfd = Context.reg_int ctx 1 in
      match Syscall.read k p rfd ~len:8 with
      | `Data s ->
        Context.set_reg_int ctx 3 (Context.reg_int ctx 3 + String.length s);
        Program.Continue
      | `Would_block -> (
        match Fd.get p.Process.fdtable rfd with
        | Some { Fd.kind = Fd.Obj oid; _ } -> Program.Block (Thread.Wait_read oid)
        | _ -> Program.Exit_program 1)
      | `Eof -> Program.Exit_program 0);
  let rfd, wfd = Syscall.pipe k prod in
  let r_ofd = Option.get (Fd.get prod.Process.fdtable rfd) in
  r_ofd.Fd.refcount <- r_ofd.Fd.refcount + 1;
  Fd.install_at cons.Process.fdtable 3 r_ofd;
  ignore (Fd.release prod.Process.fdtable rfd);
  Context.set_reg_int (Process.main_thread prod).Thread.context 1 wfd;
  Context.set_reg_int (Process.main_thread prod).Thread.context 2 5_000;
  Context.set_reg_int (Process.main_thread cons).Thread.context 1 3;
  let g = Machine.persist m (`Container c.Container.cid) in
  (* Run just a little: producer mid-stream. *)
  ignore (Scheduler.step_all k);
  ignore (Scheduler.step_all k);
  ignore (Scheduler.step_all k);
  let b = Machine.checkpoint_now m g () in
  Store.wait_durable m.Machine.disk_store b.Types.durable_at;
  Machine.crash m;
  let m' = Machine.recover m in
  let g' = Machine.persist m' (`Container c.Container.cid) in
  let pids, _ = Machine.restore_group m' g' ~gen:b.Types.gen () in
  check_int "both restored" 2 (List.length pids);
  ignore (Scheduler.run_until_idle m'.Machine.kernel);
  let cons' = Kernel.proc_exn m'.Machine.kernel cons.Process.pid in
  check_int "consumer finished" 0 (Option.get cons'.Process.exit_status);
  check_int "all bytes crossed the checkpoint" 5_000
    (Context.reg_int (Process.main_thread cons').Thread.context 3)

(* ------------------------------------------------------------------ *)
(* External consistency                                                *)
(* ------------------------------------------------------------------ *)

let test_external_consistency_buffers () =
  let m = Machine.create () in
  let k = m.Machine.kernel in
  let c = Kernel.new_container k ~name:"srv" in
  let server =
    Kernel.spawn k ~container:c.Container.cid ~name:"srv" ~program:"sls/counter-server" ()
  in
  (* Client outside the container. *)
  let client = Kernel.spawn k ~name:"cli" ~program:"test/exit42-placeholder" () in
  Program.register ~name:"test/exit42-placeholder" (fun _ _ _ ->
      Program.Block Thread.Wait_forever);
  let sfd, cfd_in_server = Syscall.socketpair k server in
  (* Hand one end to the client. *)
  let c_ofd = Option.get (Fd.get server.Process.fdtable cfd_in_server) in
  c_ofd.Fd.refcount <- c_ofd.Fd.refcount + 1;
  Fd.install_at client.Process.fdtable 4 c_ofd;
  ignore (Fd.release server.Process.fdtable cfd_in_server);
  Context.set_reg_int (Process.main_thread server).Thread.context 1 sfd;
  let g = Machine.persist m (`Container c.Container.cid) in
  ignore g;
  (* Client sends a byte; server replies — but the reply crosses the
     group boundary, so it must be buffered until a checkpoint is
     durable. *)
  ignore (Syscall.write k client 4 "!");
  ignore (Scheduler.run_until_idle k);
  check_bool "reply buffered" true (Extconsist.pending m.Machine.extcons > 0);
  (match Syscall.read k client 4 ~len:16 with
   | `Would_block -> ()
   | `Data _ -> Alcotest.fail "external consistency leak: reply visible pre-durability"
   | `Eof -> Alcotest.fail "unexpected eof");
  (* A durable checkpoint releases it. *)
  let b = Machine.checkpoint_now m g () in
  Store.wait_durable m.Machine.disk_store b.Types.durable_at;
  ignore (Extconsist.release_due m.Machine.extcons);
  (match Syscall.read k client 4 ~len:16 with
   | `Data s -> Alcotest.(check string) "reply content" "1" s
   | _ -> Alcotest.fail "reply never delivered")

let test_fdctl_disables_buffering () =
  let m = Machine.create () in
  let k = m.Machine.kernel in
  let c = Kernel.new_container k ~name:"srv" in
  let server =
    Kernel.spawn k ~container:c.Container.cid ~name:"srv" ~program:"sls/counter-server" ()
  in
  let client = Kernel.spawn k ~name:"cli" ~program:"test/exit42-placeholder" () in
  let sfd, cfd_in_server = Syscall.socketpair k server in
  let c_ofd = Option.get (Fd.get server.Process.fdtable cfd_in_server) in
  c_ofd.Fd.refcount <- c_ofd.Fd.refcount + 1;
  Fd.install_at client.Process.fdtable 4 c_ofd;
  ignore (Fd.release server.Process.fdtable cfd_in_server);
  Context.set_reg_int (Process.main_thread server).Thread.context 1 sfd;
  ignore (Machine.persist m (`Container c.Container.cid));
  (* The developer opts this descriptor out. *)
  Api.sls_fdctl server ~fd:sfd ~ext_consistency:false;
  ignore (Syscall.write k client 4 "!");
  ignore (Scheduler.run_until_idle k);
  match Syscall.read k client 4 ~len:16 with
  | `Data s -> Alcotest.(check string) "reply immediate" "1" s
  | _ -> Alcotest.fail "reply should bypass the consistency buffer"

(* ------------------------------------------------------------------ *)
(* Migration                                                           *)
(* ------------------------------------------------------------------ *)

let test_send_recv_migration () =
  let src = Machine.create () in
  let c, p = spawn_walker src ~npages:32 ~limit:1_000_000 in
  let g = Machine.persist src (`Container c.Container.cid) in
  Machine.run src (Duration.milliseconds 1);
  let ctx = (Process.main_thread p).Thread.context in
  let steps = Context.reg_int ctx 4 in
  let b = Machine.checkpoint_now src g () in
  (* Export the image and import it into a second machine. *)
  let image =
    Sendrecv.export src.Machine.disk_store ~gen:b.Types.gen ~pgid:g.Types.pgid ()
  in
  let dst = Machine.create () in
  let gen, durable = Sendrecv.import dst.Machine.disk_store image in
  Store.wait_durable dst.Machine.disk_store durable;
  (* The destination needs the restored file system too. *)
  dst.Machine.kernel.Kernel.fs <- Aurora_slsfs.Slsfs.restore_fs dst.Machine.disk_store gen;
  let g' = Machine.persist dst (`Container c.Container.cid) in
  let pids, _ = Machine.restore_group dst g' ~gen () in
  let p' = Kernel.proc_exn dst.Machine.kernel (List.hd pids) in
  check_int "execution state migrated" steps
    (Context.reg_int (Process.main_thread p').Thread.context 4);
  (* It keeps running on the destination. *)
  Context.set_reg_int (Process.main_thread p').Thread.context 3 (steps + 5);
  ignore (Scheduler.run_until_idle dst.Machine.kernel);
  check_int "finished on destination" 0 (Option.get p'.Process.exit_status)

let test_incremental_ship_smaller () =
  let m = Machine.create () in
  let c, _ = spawn_walker m ~npages:256 ~limit:1_000_000 in
  let g = Machine.persist m (`Container c.Container.cid) in
  Machine.run m (Duration.milliseconds 2);
  let b1 = Machine.checkpoint_now m g () in
  Machine.run m (Duration.microseconds 20);
  let b2 = Machine.checkpoint_now m g () in
  let store = m.Machine.disk_store and gen = b2.Types.gen and pgid = g.Types.pgid in
  (* An export and the blocks it read, run a second time so the index
     is cached and only data blocks are read. *)
  let export ?base () =
    ignore (Sendrecv.export store ~gen ~pgid ?base ());
    let read () =
      (Aurora_device.Devarray.stats m.Machine.nvme).Aurora_device.Blockdev.blocks_read
    in
    let before = read () in
    let image = Sendrecv.export store ~gen ~pgid ?base () in
    (image, read () - before)
  in
  let full, full_reads = export () in
  let delta, delta_reads = export ~base:b1.Types.gen () in
  check_bool "delta much smaller" true
    (String.length delta * 2 < String.length full);
  (* What the full image holds, counted in a store it is imported into:
     its records' blocks and its pages (this one has no file data). *)
  let dev =
    Aurora_device.Devarray.create ~stripes:1 ~clock:(Machine.clock m)
      ~profile:Aurora_device.Profile.optane_900p "dst"
  in
  let dst = Store.format ~dev () in
  let igen, _ = Sendrecv.import dst full in
  let bs = Aurora_device.Blockdev.block_size in
  let record_blocks, pages =
    List.fold_left
      (fun (r, p) oid ->
        let data = Option.value ~default:"" (Store.read_record dst igen ~oid) in
        (r + ((String.length data + bs - 1) / bs), p + Store.page_count dst igen ~oid))
      (0, 0) (Store.oids dst igen)
  in
  check_int "full export reads each page and record block once" (pages + record_blocks)
    full_reads;
  let d = Store.diff store ~from_gen:b1.Types.gen ~to_gen:gen in
  check_bool "some pages changed" true (d.Store.df_pages_changed > 0);
  check_int "delta export reads only the changed pages and the records"
    (d.Store.df_pages_added + d.Store.df_pages_changed + record_blocks)
    delta_reads

(* An export reads the records restore reads: a generation without the
   group's checkpoint, or one missing a record it names, raises
   restore's typed error. *)
let test_export_missing_record_typed () =
  let m = Machine.create () in
  let c, _ = spawn_walker m ~npages:8 ~limit:1_000_000 in
  let g = Machine.persist m (`Container c.Container.cid) in
  Machine.run m (Duration.milliseconds 1);
  let b = Machine.checkpoint_now m g () in
  let pgid = g.Types.pgid and manifest = Oidspace.manifest g.Types.pgid in
  check_bool "no checkpoint of the group" true
    (match Sendrecv.export m.Machine.disk_store ~gen:b.Types.gen ~pgid:(pgid + 1) () with
     | _ -> false
     | exception Restore.Error (Restore.No_manifest _) -> true);
  let dev =
    Aurora_device.Devarray.create ~stripes:1 ~clock:(Machine.clock m)
      ~profile:Aurora_device.Profile.optane_900p "torn"
  in
  let s = Store.format ~dev () in
  ignore (Store.begin_generation s ());
  Store.put_record s ~oid:manifest
    (Option.get (Store.read_record m.Machine.disk_store b.Types.gen ~oid:manifest));
  let gen, _ = Store.commit s () in
  check_bool "a generation holding only the manifest" true
    (match Sendrecv.export s ~gen ~pgid () with
     | _ -> false
     | exception Restore.Error (Restore.Missing_record { what = "process"; _ }) -> true)

(* A page no copy can deliver fails the export with the store's typed
   error. The store of a fault-free machine verifies no checksums, and
   export reads pages in batches, which deliver a latent sector as an
   empty block: that block must take the verified single-block read,
   not go into the image as a zero page. *)
let test_export_unreadable_page_typed () =
  let m, g, _, _ = kv_fixture ~mib:1 () in
  let gen = (Machine.checkpoint_now m g ()).Types.gen in
  Machine.drain_storage m;
  let store = m.Machine.disk_store in
  let oid = List.find (fun oid -> Store.page_count store gen ~oid > 0) (Store.oids store gen) in
  let { Store.blocks; _ } = Store.page_map store gen ~oid in
  Aurora_device.Devarray.inject_latent (Store.device store) blocks.(Array.length blocks / 2);
  Store.drop_caches store;
  check_bool "an unreadable page fails the export" true
    (match Sendrecv.export store ~gen ~pgid:g.Types.pgid () with
     | _ -> false
     | exception Store.Fail (Store.Unreadable_block _) -> true)

(* ------------------------------------------------------------------ *)
(* Replication                                                         *)
(* ------------------------------------------------------------------ *)

let test_image_checksum_rejects_bitflip () =
  let m = Machine.create () in
  let c, _ = spawn_walker m ~npages:32 ~limit:1_000_000 in
  let g = Machine.persist m (`Container c.Container.cid) in
  Machine.run m (Duration.milliseconds 1);
  let b = Machine.checkpoint_now m g () in
  let image =
    Sendrecv.export m.Machine.disk_store ~gen:b.Types.gen ~pgid:g.Types.pgid ()
  in
  let corrupt =
    let bs = Bytes.of_string image in
    let i = Bytes.length bs / 2 in
    Bytes.set bs i (Char.chr (Char.code (Bytes.get bs i) lxor 0x10));
    Bytes.unsafe_to_string bs
  in
  let dev =
    Aurora_device.Devarray.create ~stripes:1 ~clock:(Machine.clock m)
      ~profile:Aurora_device.Profile.optane_900p "dst"
  in
  let s = Store.format ~dev () in
  check_bool "bit-flipped image rejected" true
    (match Sendrecv.import s corrupt with
     | _ -> false
     | exception Restore.Error (Restore.Bad_image _) -> true);
  check_bool "store untouched" true (Store.generations s = []);
  (* Truncation is typed too, not a crash. *)
  check_bool "truncated image rejected" true
    (match Sendrecv.import s (String.sub image 0 (String.length image / 2)) with
     | _ -> false
     | exception Restore.Error (Restore.Bad_image _) -> true);
  (* The intact image still imports. *)
  ignore (Sendrecv.import s image)

let test_delta_roundtrip_receiver_crash () =
  (* The receiver crashes and reopens between the base and the delta
     import: the delta must still apply on top of the recovered base. *)
  let m = Machine.create () in
  let c, _ = spawn_walker m ~npages:64 ~limit:1_000_000 in
  let g = Machine.persist m (`Container c.Container.cid) in
  Machine.run m (Duration.milliseconds 1);
  let b1 = Machine.checkpoint_now m g () in
  Machine.run m (Duration.microseconds 50);
  let b2 = Machine.checkpoint_now m g () in
  let dev =
    Aurora_device.Devarray.create ~stripes:1 ~clock:(Machine.clock m)
      ~profile:Aurora_device.Profile.optane_900p "dst"
  in
  let s1 = Store.format ~dev () in
  let full =
    Sendrecv.export m.Machine.disk_store ~gen:b1.Types.gen ~pgid:g.Types.pgid ()
  in
  let base_gen, d1 = Sendrecv.import s1 full in
  Store.wait_durable s1 d1;
  (* Power-fail the receiver and reopen its store. *)
  Aurora_device.Devarray.crash dev;
  let s2 = Store.open_exn ~dev in
  Alcotest.(check (option int)) "base survived the crash" (Some base_gen)
    (Store.latest s2);
  let delta =
    Sendrecv.export m.Machine.disk_store ~gen:b2.Types.gen ~pgid:g.Types.pgid
      ~base:b1.Types.gen ()
  in
  let gen2, d2 = Sendrecv.import s2 delta in
  Store.wait_durable s2 d2;
  (* The receiver's reconstruction is bit-identical to the source
     generation: a fresh full export of each must match. *)
  let want =
    Sendrecv.export m.Machine.disk_store ~gen:b2.Types.gen ~pgid:g.Types.pgid ()
  in
  let got = Sendrecv.export s2 ~gen:gen2 ~pgid:g.Types.pgid () in
  check_bool "delta applied over recovered base matches source" true
    (String.equal want got)

(* Primary and standby hold the same bytes for the newest replicated
   generation (a fresh full export of each must be identical). *)
let check_converged msg m repl g =
  check_int (msg ^ ": lag") 0 (Replica.lag repl);
  let pgen = Option.get (Store.latest m.Machine.disk_store) in
  let p, s = Option.get (Replica.standby_latest repl) in
  check_int (msg ^ ": standby holds primary latest") pgen p;
  let want = Sendrecv.export m.Machine.disk_store ~gen:pgen ~pgid:g.Types.pgid () in
  let got = Sendrecv.export (Replica.standby_store repl) ~gen:s ~pgid:g.Types.pgid () in
  check_bool (msg ^ ": replicated bytes identical") true (String.equal want got)

let test_replica_ship_and_failover () =
  let m = Machine.create () in
  let c, p = spawn_walker m ~npages:32 ~limit:1_000_000 in
  let g = Machine.persist m (`Container c.Container.cid) in
  let repl = Machine.attach_standby m g in
  Machine.run m (Duration.milliseconds 1);
  ignore (Machine.checkpoint_now m g ());
  let st = Replica.stats repl in
  check_int "first ship acked" 1 st.Replica.acked;
  check_int "first ship was a full image" 1 st.Replica.full_images;
  Machine.run m (Duration.microseconds 50);
  let steps = Context.reg_int (Process.main_thread p).Thread.context 4 in
  ignore (Machine.checkpoint_now m g ());
  let st = Replica.stats repl in
  check_int "second ship acked" 2 st.Replica.acked;
  check_int "second ship was a delta" 1 st.Replica.delta_images;
  check_int "lossless link never retransmits" 0 st.Replica.retransmits;
  check_converged "lossless" m repl g;
  (* Observability: counters, RTT histogram, the repl span track, and
     the lag gauge all populated. *)
  let mm = Machine.metrics m in
  check_int "repl.ships counter" 2 (Metrics.count (Metrics.counter mm "repl.ships"));
  check_int "repl.acked counter" 2 (Metrics.count (Metrics.counter mm "repl.acked"));
  check_int "ack rtt sampled" 2
    (Metrics.hist_count (Metrics.histogram mm "repl.ack_rtt_us"));
  Machine.sync_metrics m;
  (match Metrics.find mm "repl.lag" with
   | Some (Metrics.Gauge v) -> check_int "lag gauge" 0 (int_of_float v)
   | _ -> Alcotest.fail "repl.lag gauge missing");
  check_bool "repl span track populated" true
    (List.exists
       (fun (s : Span.span) -> String.equal s.Span.track "repl")
       (Span.spans (Machine.spans m)));
  (* Fail over: the promoted machine resumes the application from the
     standby's replicated state. *)
  let promoted, report = Machine.failover m in
  check_int "rpo zero on a converged session" 0 report.Machine.fo_rpo;
  check_bool "promotion recorded a generation" true
    (report.Machine.fo_promoted_gen <> None);
  let g' = Machine.persist promoted (`Container c.Container.cid) in
  let pids, _ = Machine.restore_group promoted g' () in
  let p' = Kernel.proc_exn promoted.Machine.kernel (List.hd pids) in
  check_int "execution state replicated" steps
    (Context.reg_int (Process.main_thread p').Thread.context 4);
  (* And it keeps running on the promoted machine. *)
  Context.set_reg_int (Process.main_thread p').Thread.context 3 (steps + 5);
  ignore (Scheduler.run_until_idle promoted.Machine.kernel);
  check_int "finished on the standby" 0 (Option.get p'.Process.exit_status)

let test_replica_retransmits_on_loss () =
  let m = Machine.create () in
  let c, _ = spawn_walker m ~npages:32 ~limit:1_000_000 in
  (* Long interval: retransmit backoff advances simulated time, which
     must not trigger periodic checkpoints mid-test. *)
  let g = Machine.persist m ~interval:(Duration.seconds 1) (`Container c.Container.cid) in
  let repl =
    Machine.attach_standby m
      ~faults:(Aurora_device.Netlink.fault_plan ~seed:11L ~drop:0.3 ())
      g
  in
  Machine.run m (Duration.milliseconds 1);
  ignore (Machine.checkpoint_now m g ());
  for _ = 1 to 4 do
    Machine.run m (Duration.microseconds 50);
    ignore (Machine.checkpoint_now m g ())
  done;
  let st = Replica.stats repl in
  check_int "every ship eventually acked" 5 st.Replica.acked;
  check_bool "loss forced retransmissions" true (st.Replica.retransmits > 0);
  check_int "nothing corrupt crossed" 0 st.Replica.corrupt_rejects;
  check_converged "lossy" m repl g;
  let link_st = Aurora_device.Netlink.stats (Replica.link repl) ~from_:`A in
  check_bool "link really dropped frames" true (link_st.Aurora_device.Netlink.dropped > 0)

(* Sessions are numbered per machine: the same lossy replication, run
   twice in one process, gives the same ship reports and stats, whatever
   sessions the process opened before. *)
let test_replica_repeats_in_process () =
  let run () =
    let m = Machine.create () in
    let c, _ = spawn_walker m ~npages:32 ~limit:1_000_000 in
    let g = Machine.persist m ~interval:(Duration.seconds 1) (`Container c.Container.cid) in
    for _ = 1 to 5 do
      Machine.run m (Duration.microseconds 50);
      ignore (Machine.checkpoint_now m g ())
    done;
    let repl =
      Machine.attach_standby m
        ~faults:(Aurora_device.Netlink.fault_plan ~seed:11L ~drop:0.3 ())
        g
    in
    let reports =
      List.map (fun gen -> Replica.ship repl ~gen) (Store.generations m.Machine.disk_store)
    in
    check_bool "loss forced retransmissions" true
      ((Replica.stats repl).Replica.retransmits > 0);
    (reports, Replica.stats repl)
  in
  let first = run () in
  check_bool "the second run repeats the first" true (first = run ())

let test_replica_corruption_rejected () =
  let m = Machine.create () in
  let c, _ = spawn_walker m ~npages:32 ~limit:1_000_000 in
  let g = Machine.persist m ~interval:(Duration.seconds 1) (`Container c.Container.cid) in
  let repl =
    Machine.attach_standby m
      ~faults:(Aurora_device.Netlink.fault_plan ~seed:5L ~corrupt:0.4 ())
      g
  in
  Machine.run m (Duration.milliseconds 1);
  ignore (Machine.checkpoint_now m g ());
  for _ = 1 to 4 do
    Machine.run m (Duration.microseconds 50);
    ignore (Machine.checkpoint_now m g ())
  done;
  let st = Replica.stats repl in
  check_bool "corrupt frames were rejected" true (st.Replica.corrupt_rejects > 0);
  check_int "every ship still acked" 5 st.Replica.acked;
  (* The decisive property: despite a 40% bit-flip rate, the standby
     holds bit-identical state — corruption never imports. *)
  check_converged "corrupting link" m repl g

let test_replica_partition_degrades_then_resyncs () =
  let m = Machine.create () in
  let c, _ = spawn_walker m ~npages:32 ~limit:1_000_000 in
  (* Long interval: only manual checkpoints fire. *)
  let g = Machine.persist m ~interval:(Duration.seconds 1) (`Container c.Container.cid) in
  let repl =
    Machine.attach_standby m
      ~faults:
        (Aurora_device.Netlink.fault_plan
           ~partitions:[ (Duration.milliseconds 2, Duration.milliseconds 13) ] ())
      ~ack_timeout:(Duration.milliseconds 1) ~max_attempts:3 g
  in
  Machine.run m (Duration.microseconds 200);
  ignore (Machine.checkpoint_now m g ());
  check_int "pre-partition ship acked" 1 (Replica.stats repl).Replica.acked;
  (* Checkpoint inside the partition window: the retry budget runs out
     while the wire is cut. *)
  Machine.run m (Duration.milliseconds 2);
  ignore (Machine.checkpoint_now m g ());
  let st = Replica.stats repl in
  check_int "partitioned ship gave up" 1 st.Replica.gave_up;
  check_bool "session degraded" true (Replica.state repl = `Degraded);
  check_bool "lag visible" true (Replica.lag repl > 0);
  (* Heal: the next checkpoint re-converges from the last acked
     generation. *)
  Machine.run m (Duration.milliseconds 12);
  ignore (Machine.checkpoint_now m g ());
  check_bool "session recovered" true (Replica.state repl = `Idle);
  check_converged "after heal" m repl g

let test_replica_rpo_counts_lost_generations () =
  let m = Machine.create () in
  let c, _ = spawn_walker m ~npages:16 ~limit:1_000_000 in
  let g = Machine.persist m ~interval:(Duration.seconds 1) (`Container c.Container.cid) in
  (* The wire is cut for the whole run: nothing ever replicates. *)
  ignore
    (Machine.attach_standby m
       ~faults:
         (Aurora_device.Netlink.fault_plan
            ~partitions:[ (Duration.zero, Duration.seconds 10) ] ())
       ~ack_timeout:(Duration.microseconds 200) ~max_attempts:2 g);
  Machine.run m (Duration.milliseconds 1);
  ignore (Machine.checkpoint_now m g ());
  Machine.run m (Duration.microseconds 50);
  ignore (Machine.checkpoint_now m g ());
  let _, report = Machine.failover m in
  check_int "both generations lost" 2 report.Machine.fo_rpo;
  check_bool "nothing to promote" true (report.Machine.fo_promoted_gen = None)

let test_replica_standby_crash_recovers_session () =
  let m = Machine.create () in
  let c, _ = spawn_walker m ~npages:32 ~limit:1_000_000 in
  let g = Machine.persist m (`Container c.Container.cid) in
  let repl = Machine.attach_standby m g in
  Machine.run m (Duration.milliseconds 1);
  ignore (Machine.checkpoint_now m g ());
  Machine.run m (Duration.microseconds 50);
  let b2 = Machine.checkpoint_now m g () in
  (* Power-fail the standby: acked state is durable by construction
     (ACK means durable), so the reopened store resumes at b2. *)
  Replica.crash_standby repl;
  Alcotest.(check (option int)) "acked state survived the standby crash"
    (Some b2.Types.gen)
    (Option.map fst (Replica.standby_latest repl));
  Machine.run m (Duration.microseconds 50);
  ignore (Machine.checkpoint_now m g ());
  let st = Replica.stats repl in
  check_int "post-crash ship acked" 3 st.Replica.acked;
  check_converged "after standby crash" m repl g

let test_replica_primary_reboot_resumes_with_delta () =
  let m = Machine.create () in
  let c, _ = spawn_walker m ~npages:32 ~limit:1_000_000 in
  let g = Machine.persist m (`Container c.Container.cid) in
  let repl1 = Machine.attach_standby m g in
  Machine.run m (Duration.milliseconds 1);
  ignore (Machine.checkpoint_now m g ());
  Machine.run m (Duration.microseconds 50);
  let b2 = Machine.checkpoint_now m g () in
  Machine.drain_storage m;
  let standby_dev = Store.device (Replica.standby_store repl1) in
  (* The primary dies and reboots; a new session over the surviving
     standby device resumes from the replication state the standby
     recorded durably. *)
  Machine.crash m;
  let m' = Machine.recover m in
  let g' = Machine.persist m' (`Container c.Container.cid) in
  ignore (Machine.restore_group m' g' ());
  let repl2 = Machine.attach_standby m' ~standby_dev g' in
  Alcotest.(check (option int)) "session recovered the acked generation"
    (Some b2.Types.gen) (Replica.acked_gen repl2);
  Machine.run m' (Duration.microseconds 50);
  ignore (Machine.checkpoint_now m' g' ());
  let st = Replica.stats repl2 in
  check_int "resumed with a delta, not a full resync" 1 st.Replica.delta_images;
  check_int "no full image re-shipped" 0 st.Replica.full_images;
  check_converged "after primary reboot" m' repl2 g'

(* ------------------------------------------------------------------ *)
(* Persistent log (sls_ntflush)                                        *)
(* ------------------------------------------------------------------ *)

let test_ntflush_survives_crash () =
  let m = Machine.create () in
  let c, _ = spawn_walker m ~npages:8 ~limit:4 in
  let g = Machine.persist m (`Container c.Container.cid) in
  let d1 = Api.sls_ntflush m g "SET a 1" in
  let d2 = Api.sls_ntflush m g "SET b 2" in
  Api.sls_barrier_until m (Duration.max d1 d2);
  Machine.crash m;
  let m' = Machine.recover m in
  let g' = Machine.persist m' (`Container c.Container.cid) in
  (* The restored application replays the log. *)
  Alcotest.(check (list string)) "log recovered" [ "SET a 1"; "SET b 2" ]
    (Api.sls_log_read m' { g' with Types.pgid = g.Types.pgid });
  ()

let test_ntflush_not_durable_before_barrier () =
  let m = Machine.create () in
  let c, _ = spawn_walker m ~npages:8 ~limit:4 in
  let g = Machine.persist m (`Container c.Container.cid) in
  ignore (Api.sls_ntflush m g "volatile-entry");
  (* Crash immediately: the flush was queued but the clock never
     reached its durability instant. *)
  Machine.crash m;
  let m' = Machine.recover m in
  let g' = Machine.persist m' (`Container c.Container.cid) in
  Alcotest.(check (list string)) "entry lost without barrier" []
    (Api.sls_log_read m' { g' with Types.pgid = g.Types.pgid })

(* ------------------------------------------------------------------ *)
(* CRIU baseline                                                       *)
(* ------------------------------------------------------------------ *)

let test_criu_slower_than_aurora () =
  let m = Machine.create () in
  let c, _ = spawn_walker m ~npages:2048 ~limit:1_000_000 in
  let g = Machine.persist m (`Container c.Container.cid) in
  Machine.run m (Duration.milliseconds 5);
  let aurora_full = Machine.checkpoint_now m g ~mode:`Full () in
  Machine.run m (Duration.microseconds 100);
  let criu = Criu_baseline.checkpoint m.Machine.kernel g () in
  check_bool "criu stop time much larger" true
    Duration.(
      criu.Types.stop_time
      > Duration.scale aurora_full.Types.stop_time 5);
  (* And incremental Aurora is even further ahead. *)
  Machine.run m (Duration.microseconds 100);
  let aurora_incr = Machine.checkpoint_now m g ~mode:`Incremental () in
  check_bool "incremental beats criu by a lot" true
    Duration.(
      criu.Types.stop_time > Duration.scale aurora_incr.Types.stop_time 10)

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)
(* ------------------------------------------------------------------ *)


let test_trace_records_checkpoints () =
  let m = Machine.create () in
  let c, _ = spawn_walker m ~npages:8 ~limit:1_000_000 in
  let g = Machine.persist m (`Container c.Container.cid) in
  let b = Machine.checkpoint_now m g () in
  let traced name =
    List.exists
      (fun (s : Span.span) ->
        List.assoc_opt "gen" s.Span.attrs = Some (string_of_int b.Types.gen))
      (Span.find_all (Machine.spans m) ~name)
  in
  check_bool "checkpoint traced" true (traced "ckpt");
  ignore (Machine.restore_group m g ());
  check_bool "restore traced" true (traced "restore");
  (* The pipeline observability surface: once the epoch is retired,
     its flush lives on the ckpt.pipeline span track and the
     flush/lag/backpressure histograms have samples. *)
  Machine.drain_storage m;
  let flush_spans =
    List.filter
      (fun (s : Span.span) -> String.equal s.Span.track "ckpt.pipeline")
      (Span.spans (Machine.spans m))
  in
  check_bool "flush span on the ckpt.pipeline track" true (flush_spans <> []);
  let mm = Machine.metrics m in
  let has_samples name = Metrics.hist_count (Metrics.histogram mm name) > 0 in
  check_bool "ckpt.flush_us sampled" true (has_samples "ckpt.flush_us");
  check_bool "ckpt.durable_lag_us sampled" true (has_samples "ckpt.durable_lag_us");
  check_bool "ckpt.backpressure_us sampled" true
    (has_samples "ckpt.backpressure_us");
  Machine.sync_metrics m;
  check_bool "ckpt.inflight_gens gauge present" true
    (Metrics.find mm "ckpt.inflight_gens" <> None)

let test_nvdimm_durability_faster () =
  (* The same checkpoint cycle reaches durability sooner on NVDIMM
     than on flash (the byte-addressable tier the paper positions as a
     local backend). *)
  let durable_lag profile =
    let m = Machine.create ~storage_profile:profile () in
    let c, _ = spawn_walker m ~npages:256 ~limit:1_000_000 in
    let g = Machine.persist m (`Container c.Container.cid) in
    Machine.run m (Duration.milliseconds 1);
    let b = Machine.checkpoint_now m g () in
    Duration.to_us (Duration.sub b.Types.durable_at b.Types.barrier_at)
  in
  let optane = durable_lag Aurora_device.Profile.optane_900p in
  let nvdimm = durable_lag Aurora_device.Profile.nvdimm in
  check_bool "nvdimm reaches durability sooner" true (nvdimm < optane)

let test_machine_determinism () =
  let run () =
    let m = Machine.create () in
    let c, _ = spawn_walker m ~npages:64 ~limit:1_000_000 in
    let g = Machine.persist m ~interval:(Duration.milliseconds 7) (`Container c.Container.cid) in
    Machine.run m (Duration.milliseconds 50);
    ( Duration.to_ns (Machine.now m),
      Ckpt_spans.count m g,
      (Store.stats m.Machine.disk_store).Store.live_blocks )
  in
  let a = run () and b = run () in
  check_bool "bit-identical machine runs" true (a = b)

let () =
  Alcotest.run "sls"
    [
      ( "checkpoint",
        [
          Alcotest.test_case "full vs incremental breakdown" `Quick
            test_full_vs_incremental_breakdown;
          Alcotest.test_case "periodic checkpoints fire" `Quick
            test_periodic_checkpoints_fire;
          Alcotest.test_case "idle incremental captures nothing" `Quick
            test_incremental_dirty_only;
          Alcotest.test_case "history gc" `Quick test_checkpoint_gc_history;
          Alcotest.test_case "drain ignores unrelated io" `Quick
            test_drain_ignores_unrelated_io;
          Alcotest.test_case "checkpoint not gated by raw io" `Quick
            test_checkpoint_not_gated_by_raw_io;
          Alcotest.test_case "full device degrades, machine survives" `Quick
            test_full_device_degrades_checkpoint;
          Alcotest.test_case "detach the memory backend" `Quick
            test_detach_memory_backend;
          Alcotest.test_case "words per captured page" `Quick
            test_checkpoint_words_per_page;
          Alcotest.test_case "ship time reported" `Quick test_ship_time_reported;
          Alcotest.test_case "a bounded device reuses freed blocks" `Quick
            test_bounded_device_reuses_freed_blocks;
        ] );
      ( "restore",
        [
          Alcotest.test_case "restore after crash resumes execution" `Quick
            test_restore_after_crash;
          Alcotest.test_case "memory contents restored" `Quick test_restore_memory_contents;
          Alcotest.test_case "lazy restore faults from image" `Quick
            test_restore_policies_fault_behavior;
          Alcotest.test_case "eager restore avoids faults" `Quick
            test_restore_eager_no_faults;
          Alcotest.test_case "bit rot healed under every policy" `Quick
            test_restore_heals_bit_rot;
          Alcotest.test_case "rollback" `Quick test_rollback;
          Alcotest.test_case "clone scale-out" `Quick test_clone_scaleout;
          Alcotest.test_case "pipe contents cross checkpoint" `Quick
            test_restore_preserves_pipe;
          Alcotest.test_case "a checkpoint after a restore keeps the pages" `Quick
            test_checkpoint_after_restore_keeps_pages;
        ] );
      ( "external-consistency",
        [
          Alcotest.test_case "output buffered until durable" `Quick
            test_external_consistency_buffers;
          Alcotest.test_case "fdctl opts out" `Quick test_fdctl_disables_buffering;
        ] );
      ( "migration",
        [
          Alcotest.test_case "send/recv migration" `Quick test_send_recv_migration;
          Alcotest.test_case "incremental shipment smaller" `Quick
            test_incremental_ship_smaller;
          Alcotest.test_case "export of a torn generation is typed" `Quick
            test_export_missing_record_typed;
          Alcotest.test_case "export of an unreadable page is typed" `Quick
            test_export_unreadable_page_typed;
        ] );
      ( "replication",
        [
          Alcotest.test_case "image checksum rejects bit flips" `Quick
            test_image_checksum_rejects_bitflip;
          Alcotest.test_case "delta applies after receiver crash+reopen" `Quick
            test_delta_roundtrip_receiver_crash;
          Alcotest.test_case "ship, converge, fail over" `Quick
            test_replica_ship_and_failover;
          Alcotest.test_case "loss forces retransmits, still converges" `Quick
            test_replica_retransmits_on_loss;
          Alcotest.test_case "a lossy run repeats in one process" `Quick
            test_replica_repeats_in_process;
          Alcotest.test_case "corruption rejected, never imported" `Quick
            test_replica_corruption_rejected;
          Alcotest.test_case "partition degrades, heal resyncs" `Quick
            test_replica_partition_degrades_then_resyncs;
          Alcotest.test_case "failover reports lost generations" `Quick
            test_replica_rpo_counts_lost_generations;
          Alcotest.test_case "standby crash keeps acked prefix" `Quick
            test_replica_standby_crash_recovers_session;
          Alcotest.test_case "primary reboot resumes with delta" `Quick
            test_replica_primary_reboot_resumes_with_delta;
        ] );
      ( "ntflush",
        [
          Alcotest.test_case "log survives crash after barrier" `Quick
            test_ntflush_survives_crash;
          Alcotest.test_case "unbarriered flush lost" `Quick
            test_ntflush_not_durable_before_barrier;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "criu-style much slower" `Quick test_criu_slower_than_aurora;
        ] );
      ( "observability",
        [
          Alcotest.test_case "trace records ckpt/restore" `Quick
            test_trace_records_checkpoints;
          Alcotest.test_case "nvdimm durability" `Quick test_nvdimm_durability_faster;
        ] );
      ( "determinism",
        [ Alcotest.test_case "machine runs reproduce" `Quick test_machine_determinism ] );
    ]
