(* Cross-subsystem integration tests: whole-container checkpoints of
   applications composed of "processes that share memory or files in
   arbitrary ways" (§1) — every POSIX object class at once — plus
   remote replication failover, multi-group isolation, mctl exclusion, and checkpoint determinism. *)

open Aurora_simtime
open Aurora_vm
open Aurora_posix
open Aurora_proc
open Aurora_objstore
open Aurora_sls

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let () =
  Program.register ~name:"integ/parked" (fun _ _ _ -> Program.Block Thread.Wait_forever)

let spawn_parked k ~container ~name =
  Kernel.spawn k ~container ~name ~program:"integ/parked" ()

(* ------------------------------------------------------------------ *)
(* The full POSIX zoo, checkpointed and restored across a crash        *)
(* ------------------------------------------------------------------ *)

let test_posix_zoo_roundtrip () =
  let m = Machine.create () in
  let k = m.Machine.kernel in
  let c = Kernel.new_container k ~name:"zoo" in
  let cid = c.Container.cid in
  let a = spawn_parked k ~container:cid ~name:"proc-a" in
  let b = spawn_parked k ~container:cid ~name:"proc-b" in

  (* A pipe with buffered data, read end in b. *)
  let prd, pwr = Syscall.pipe k a in
  let prd_ofd = Option.get (Fd.get a.Process.fdtable prd) in
  prd_ofd.Fd.refcount <- prd_ofd.Fd.refcount + 1;
  Fd.install_at b.Process.fdtable 9 prd_ofd;
  ignore (Fd.release a.Process.fdtable prd);
  (match Syscall.write k a pwr "five!" with
   | `Written 5 -> ()
   | _ -> Alcotest.fail "pipe prime failed");

  (* A socketpair with in-flight data in both directions. *)
  let sa, sb = Syscall.socketpair k a in
  let sb_ofd = Option.get (Fd.get a.Process.fdtable sb) in
  sb_ofd.Fd.refcount <- sb_ofd.Fd.refcount + 1;
  Fd.install_at b.Process.fdtable 10 sb_ofd;
  ignore (Fd.release a.Process.fdtable sb);
  ignore (Syscall.write k a sa "a->b");
  ignore (Syscall.write k b 10 "b->a");

  (* Shared memory both processes map; a writes, b must see it. *)
  let shm_oid = Syscall.shm_open k a ~flavor:Shm.Posix_shm ~name:"/zoo" ~npages:2 in
  let ea = Syscall.shm_attach k a shm_oid in
  let eb = Syscall.shm_attach k b shm_oid in
  Syscall.mem_write k a ~vpn:ea.Vmmap.start_vpn ~offset:0 ~value:77L;

  (* A message queue with a pending message and a semaphore at 3. *)
  let q = Syscall.msgq_open k a ~key:"zoo-q" in
  (match Syscall.msgq_send k a q ~mtype:5 "queued" with
   | `Ok -> ()
   | `Would_block -> Alcotest.fail "msgq send failed");
  let sem = Syscall.sem_open k a ~name:"/zoo-sem" ~value:3 in

  (* A kqueue with a registered filter and one pending event. *)
  let kq = Syscall.kqueue k a in
  Syscall.kevent_register k a ~kq ~ident:42 Kqueue.Evt_user;
  Syscall.kevent_trigger k a ~kq ~ident:42 Kqueue.Evt_user;

  (* Files: one regular (with an advanced shared offset through a
     dup), one anonymous (unlinked but open). *)
  Syscall.mkdir k a "/data";
  let f = Syscall.open_file k a ~create:true "/data/log" in
  ignore (Syscall.write k a f "0123456789");
  Syscall.lseek k a f 4;
  let f2 = Syscall.dup k a f in
  let anon = Syscall.open_file k a ~create:true "/data/tmp" in
  ignore (Syscall.write k a anon "precious anonymous bytes");
  Syscall.unlink k a "/data/tmp";

  (* Private memory in both processes. *)
  let ma = Syscall.mmap_anon k a ~npages:4 in
  Syscall.mem_write k a ~vpn:ma.Vmmap.start_vpn ~offset:8 ~value:1234L;
  let ma_content = Vmmap.read a.Process.vm ~vpn:ma.Vmmap.start_vpn in

  (* Checkpoint, crash, recover, restore. *)
  let g = Machine.persist m (`Container cid) in
  let bkd = Machine.checkpoint_now m g () in
  Store.wait_durable m.Machine.disk_store bkd.Types.durable_at;
  Machine.crash m;
  let m' = Machine.recover m in
  let k' = m'.Machine.kernel in
  let g' = Machine.persist m' (`Container cid) in
  let pids, _ = Machine.restore_group m' g' ~gen:bkd.Types.gen () in
  check_int "both processes back" 2 (List.length pids);
  let a' = Kernel.proc_exn k' a.Process.pid in
  let b' = Kernel.proc_exn k' b.Process.pid in

  (* Pipe: b' drains the buffered bytes, a' write end still works. *)
  (match Syscall.read k' b' 9 ~len:16 with
   | `Data s -> check_str "pipe buffer crossed the crash" "five!" s
   | _ -> Alcotest.fail "pipe data lost");
  (match Syscall.write k' a' pwr "more" with
   | `Written 4 -> ()
   | _ -> Alcotest.fail "pipe write end broken after restore");
  (match Syscall.read k' b' 9 ~len:16 with
   | `Data s -> check_str "pipe still connected" "more" s
   | _ -> Alcotest.fail "pipe connection lost");

  (* Socketpair: in-flight data both ways, still connected. *)
  (match Syscall.read k' b' 10 ~len:16 with
   | `Data s -> check_str "a->b in flight" "a->b" s
   | _ -> Alcotest.fail "socket a->b lost");
  (match Syscall.read k' a' sa ~len:16 with
   | `Data s -> check_str "b->a in flight" "b->a" s
   | _ -> Alcotest.fail "socket b->a lost");

  (* Shared memory: content visible from BOTH restored processes and
     still genuinely shared. *)
  check_bool "shm content from a" true
    (Int64.equal
       (Syscall.mem_read k' a' ~vpn:ea.Vmmap.start_vpn ~offset:0)
       (Syscall.mem_read k' b' ~vpn:eb.Vmmap.start_vpn ~offset:0));
  Syscall.mem_write k' b' ~vpn:eb.Vmmap.start_vpn ~offset:16 ~value:88L;
  check_bool "shm still shared after restore" true
    (Content.equal
       (Vmmap.read a'.Process.vm ~vpn:ea.Vmmap.start_vpn)
       (Vmmap.read b'.Process.vm ~vpn:eb.Vmmap.start_vpn));

  (* Message queue and semaphore. *)
  (match Syscall.msgq_recv k' a' q () with
   | `Msg (5, "queued") -> ()
   | _ -> Alcotest.fail "message lost");
  check_bool "semaphore value restored" true (Syscall.sem_wait k' a' sem = `Ok);

  (* Kqueue: the pending event survived. *)
  (match Syscall.kevent_poll k' a' ~kq ~max:4 with
   | [ (42, Kqueue.Evt_user) ] -> ()
   | _ -> Alcotest.fail "kqueue pending event lost");

  (* Files: shared offset through the dup, anonymous file intact. *)
  (match Syscall.read k' a' f ~len:3 with
   | `Data s -> check_str "file offset restored" "456" s
   | _ -> Alcotest.fail "file read failed");
  (match Syscall.read k' a' f2 ~len:3 with
   | `Data s -> check_str "dup shares restored offset" "789" s
   | _ -> Alcotest.fail "dup read failed");
  (match Syscall.read k' a' anon ~len:100 with
   | `Data _ | `Eof -> ()
   | `Would_block -> Alcotest.fail "anonymous fd broken");
  Syscall.lseek k' a' anon 0;
  (match Syscall.read k' a' anon ~len:100 with
   | `Data s -> check_str "anonymous file contents" "precious anonymous bytes" s
   | _ -> Alcotest.fail "anonymous file lost");

  (* Private memory. *)
  check_bool "private page restored" true
    (Content.equal ma_content (Vmmap.read a'.Process.vm ~vpn:ma.Vmmap.start_vpn))

(* ------------------------------------------------------------------ *)
(* sls_mctl: excluded regions are not captured                         *)
(* ------------------------------------------------------------------ *)

let test_mctl_exclusion () =
  let m = Machine.create () in
  let k = m.Machine.kernel in
  let c = Kernel.new_container k ~name:"mctl" in
  let p = spawn_parked k ~container:c.Container.cid ~name:"app" in
  let keep = Syscall.mmap_anon k p ~npages:8 in
  let scratch = Syscall.mmap_anon k p ~npages:8 in
  for i = 0 to 7 do
    Syscall.mem_write k p ~vpn:(keep.Vmmap.start_vpn + i) ~offset:0 ~value:1L;
    Syscall.mem_write k p ~vpn:(scratch.Vmmap.start_vpn + i) ~offset:0 ~value:2L
  done;
  let g = Machine.persist m (`Container c.Container.cid) in
  Api.sls_mctl m p scratch ~persist:false;
  let b = Machine.checkpoint_now m g () in
  check_int "only the kept region captured" 8 b.Types.pages_captured;
  (* Restore: the excluded range is simply absent. *)
  let pids, _ = Machine.restore_group m g () in
  let p' = Kernel.proc_exn k (List.hd pids) in
  check_bool "kept range present" true
    (Vmmap.entry_at p'.Process.vm keep.Vmmap.start_vpn <> None);
  check_bool "excluded range unmapped" true
    (Vmmap.entry_at p'.Process.vm scratch.Vmmap.start_vpn = None)

(* ------------------------------------------------------------------ *)
(* Remote replication and failover                                     *)
(* ------------------------------------------------------------------ *)

let test_remote_replication_failover () =
  (* Machine A persists to local disk AND replicates every checkpoint
     to a hot standby ("sending an application's incremental
     checkpoints to both a local disk and a remote machine for
     replication"). A dies; the promoted standby resurrects the
     application from the replicated images. *)
  let a = Machine.create () in
  let ka = a.Machine.kernel in
  let c = Kernel.new_container ka ~name:"svc" in
  let p = spawn_parked ka ~container:c.Container.cid ~name:"svc" in
  let mem = Syscall.mmap_anon ka p ~npages:4 in
  Syscall.mem_write ka p ~vpn:mem.Vmmap.start_vpn ~offset:0 ~value:31337L;
  let content = Vmmap.read p.Process.vm ~vpn:mem.Vmmap.start_vpn in
  let g = Machine.persist a (`Container c.Container.cid) in
  let repl = Machine.attach_standby a g in
  (* Three checkpoint cycles, each shipped and acknowledged. *)
  for _ = 1 to 3 do
    ignore (Machine.checkpoint_now a g ())
  done;
  check_int "three generations acked" 3 (Replica.stats repl).Replica.acked;
  (* Machine A is lost entirely; the standby takes over. *)
  let b, report = Machine.failover a in
  check_int "no acknowledged generation lost" 0 report.Machine.fo_rpo;
  let g' = Machine.persist b (`Container c.Container.cid) in
  let pids, _ = Machine.restore_group b g' () in
  let p' = Kernel.proc_exn b.Machine.kernel (List.hd pids) in
  check_bool "replicated state intact on the replica" true
    (Content.equal content (Vmmap.read p'.Process.vm ~vpn:mem.Vmmap.start_vpn))

(* ------------------------------------------------------------------ *)
(* Group isolation                                                     *)
(* ------------------------------------------------------------------ *)

let test_two_groups_isolated () =
  let m = Machine.create () in
  let k = m.Machine.kernel in
  let ca = Kernel.new_container k ~name:"alpha" in
  let cb = Kernel.new_container k ~name:"beta" in
  let pa = spawn_parked k ~container:ca.Container.cid ~name:"alpha" in
  let pb = spawn_parked k ~container:cb.Container.cid ~name:"beta" in
  let ea = Syscall.mmap_anon k pa ~npages:2 in
  let eb = Syscall.mmap_anon k pb ~npages:2 in
  Syscall.mem_write k pa ~vpn:ea.Vmmap.start_vpn ~offset:0 ~value:1L;
  Syscall.mem_write k pb ~vpn:eb.Vmmap.start_vpn ~offset:0 ~value:2L;
  let ga = Machine.persist m (`Container ca.Container.cid) in
  let gb = Machine.persist m (`Container cb.Container.cid) in
  ignore (Machine.checkpoint_now m ga ());
  ignore (Machine.checkpoint_now m gb ());
  (* Mutate beta, then restore ONLY alpha: beta's live state must be
     untouched. *)
  Syscall.mem_write k pb ~vpn:eb.Vmmap.start_vpn ~offset:0 ~value:3L;
  let beta_now = Vmmap.read pb.Process.vm ~vpn:eb.Vmmap.start_vpn in
  let pids, _ = Machine.restore_group m ga () in
  check_int "alpha restored" 1 (List.length pids);
  check_bool "beta process untouched" true
    (match Kernel.proc k pb.Process.pid with Some p -> p == pb | None -> false);
  check_bool "beta memory untouched" true
    (Content.equal beta_now (Vmmap.read pb.Process.vm ~vpn:eb.Vmmap.start_vpn))

let test_zombies_not_checkpointed () =
  let m = Machine.create () in
  let k = m.Machine.kernel in
  let c = Kernel.new_container k ~name:"z" in
  let live = spawn_parked k ~container:c.Container.cid ~name:"live" in
  let dead = spawn_parked k ~container:c.Container.cid ~name:"dead" in
  Syscall.exit_process k dead 1;
  let g = Machine.persist m (`Container c.Container.cid) in
  let b = Machine.checkpoint_now m g () in
  let pids, _ = Machine.restore_group m g ~gen:b.Types.gen () in
  check_int "only the live process restored" 1 (List.length pids);
  check_int "and it is the right one" live.Process.pid (List.hd pids)

(* ------------------------------------------------------------------ *)
(* Determinism of the checkpoint bytes                                 *)
(* ------------------------------------------------------------------ *)

let test_checkpoint_images_canonical () =
  (* Exporting is deterministic, and importing an image into a fresh
     store then re-exporting it reproduces the exact bytes — images
     are a canonical representation of application state. *)
  let m = Machine.create () in
  let k = m.Machine.kernel in
  let c = Kernel.new_container k ~name:"det" in
  let p = spawn_parked k ~container:c.Container.cid ~name:"app" in
  let e = Syscall.mmap_anon k p ~npages:8 in
  for i = 0 to 7 do
    Syscall.mem_write k p ~vpn:(e.Vmmap.start_vpn + i) ~offset:0
      ~value:(Int64.of_int (i * 3))
  done;
  let _rfd, _wfd = Syscall.pipe k p in
  let g = Machine.persist m (`Container c.Container.cid) in
  let b = Machine.checkpoint_now m g () in
  let export () =
    Sendrecv.export m.Machine.disk_store ~gen:b.Types.gen ~pgid:g.Types.pgid ()
  in
  let img1 = export () in
  check_bool "repeated export identical" true (String.equal img1 (export ()));
  let other = Machine.create () in
  let gen, durable = Sendrecv.import other.Machine.disk_store img1 in
  Store.wait_durable other.Machine.disk_store durable;
  let img2 =
    Sendrecv.export other.Machine.disk_store ~gen ~pgid:g.Types.pgid ()
  in
  check_bool "import/re-export reproduces the bytes" true (String.equal img1 img2)

(* ------------------------------------------------------------------ *)
(* History + named checkpoints under GC                                *)
(* ------------------------------------------------------------------ *)

let test_named_checkpoint_survives_gc () =
  let m = Machine.create () in
  m.Machine.history_window <- 2;
  let k = m.Machine.kernel in
  let c = Kernel.new_container k ~name:"gc" in
  let p = spawn_parked k ~container:c.Container.cid ~name:"app" in
  let e = Syscall.mmap_anon k p ~npages:1 in
  let g = Machine.persist m (`Container c.Container.cid) in
  Syscall.mem_write k p ~vpn:e.Vmmap.start_vpn ~offset:0 ~value:100L;
  let golden = Machine.checkpoint_now m g ~name:"golden" () in
  let golden_content = Vmmap.read p.Process.vm ~vpn:e.Vmmap.start_vpn in
  (* Ten more checkpoints with mutations: the window is 2, so only the
     named generation protects the old state. *)
  for i = 1 to 10 do
    Syscall.mem_write k p ~vpn:e.Vmmap.start_vpn ~offset:0 ~value:(Int64.of_int i);
    ignore (Machine.checkpoint_now m g ())
  done;
  check_bool "window applied" true
    (List.length (Store.generations m.Machine.disk_store) <= 4);
  check_bool "named generation survived" true
    (Store.find_named m.Machine.disk_store "golden" = Some golden.Types.gen);
  (* And it restores the old state faithfully. *)
  let pids, _ = Machine.restore_group m g ~gen:golden.Types.gen () in
  let p' = Kernel.proc_exn k (List.hd pids) in
  check_bool "golden state intact" true
    (Content.equal golden_content (Vmmap.read p'.Process.vm ~vpn:e.Vmmap.start_vpn))

(* ------------------------------------------------------------------ *)
(* Property: random write histories survive checkpoint/restore         *)
(* ------------------------------------------------------------------ *)

let prop_roundtrip_random_memory =
  QCheck.Test.make ~name:"checkpoint/restore preserves arbitrary memory states"
    ~count:25
    QCheck.(list_of_size Gen.(int_range 1 60) (pair (int_bound 15) int64))
    (fun writes ->
      let m = Machine.create () in
      let k = m.Machine.kernel in
      let c = Kernel.new_container k ~name:"prop" in
      let p = spawn_parked k ~container:c.Container.cid ~name:"app" in
      let e = Syscall.mmap_anon k p ~npages:16 in
      List.iter
        (fun (page, v) ->
          Syscall.mem_write k p ~vpn:(e.Vmmap.start_vpn + page) ~offset:0 ~value:v)
        writes;
      let before =
        List.init 16 (fun i -> Vmmap.read p.Process.vm ~vpn:(e.Vmmap.start_vpn + i))
      in
      let g = Machine.persist m (`Container c.Container.cid) in
      let b = Machine.checkpoint_now m g () in
      Store.wait_durable m.Machine.disk_store b.Types.durable_at;
      Machine.crash m;
      let m' = Machine.recover m in
      let g' = Machine.persist m' (`Container c.Container.cid) in
      let pids, _ = Machine.restore_group m' g' ~gen:b.Types.gen () in
      let p' = Kernel.proc_exn m'.Machine.kernel (List.hd pids) in
      List.for_all2 Content.equal before
        (List.init 16 (fun i -> Vmmap.read p'.Process.vm ~vpn:(e.Vmmap.start_vpn + i))))


(* ------------------------------------------------------------------ *)
(* Servers blocked in accept survive restore and accept new clients    *)
(* ------------------------------------------------------------------ *)

let () =
  (* A TCP server: bind+listen, then loop accepting and replying with
     a banner. *)
  Program.register ~name:"integ/banner-server" (fun k p th ->
      let ctx = th.Thread.context in
      match ctx.Context.pc with
      | 0 ->
        let fd = Syscall.socket k p `Tcp in
        Syscall.bind_listen k p fd ~addr:"8080" ~backlog:8;
        Context.set_reg_int ctx 1 fd;
        ctx.Context.pc <- 1;
        Program.Continue
      | _ -> (
        let lfd = Context.reg_int ctx 1 in
        match Syscall.accept k p lfd with
        | `Fd conn ->
          ignore (Syscall.write k p conn "hello from the past");
          Syscall.close k p conn;
          Context.set_reg_int ctx 2 (Context.reg_int ctx 2 + 1);
          Program.Continue
        | `Would_block -> (
          match Fd.get p.Process.fdtable lfd with
          | Some { Fd.kind = Fd.Obj oid; _ } -> Program.Block (Thread.Wait_accept oid)
          | _ -> Program.Exit_program 1)))

let test_blocked_server_restored_accepts () =
  let m = Machine.create () in
  let k = m.Machine.kernel in
  let c = Kernel.new_container k ~name:"web" in
  let srv =
    Kernel.spawn k ~container:c.Container.cid ~name:"banner"
      ~program:"integ/banner-server" ()
  in
  (* Let it bind and park in accept. *)
  ignore (Scheduler.run_until_idle k);
  check_bool "parked in accept" true
    (match (Process.main_thread srv).Thread.state with
     | Thread.Blocked (Thread.Wait_accept _) -> true
     | _ -> false);
  let g = Machine.persist m (`Container c.Container.cid) in
  let b = Machine.checkpoint_now m g () in
  Store.wait_durable m.Machine.disk_store b.Types.durable_at;
  Machine.crash m;
  let m' = Machine.recover m in
  let k' = m'.Machine.kernel in
  let g' = Machine.persist m' (`Container c.Container.cid) in
  ignore (Machine.restore_group m' g' ~gen:b.Types.gen ());
  (* A brand-new client connects to the restored listener: the port
     binding and the blocked accept both survived. *)
  let cli = Kernel.spawn k' ~name:"client" ~program:"integ/parked" () in
  let cfd = Syscall.socket k' cli `Tcp in
  (match Syscall.connect k' cli cfd ~addr:"8080" with
   | `Ok -> ()
   | `Refused -> Alcotest.fail "restored listener refused the connection");
  (* The reply crosses the group boundary: external consistency holds
     it until a checkpoint covers it, so run through a few checkpoint
     intervals. *)
  Machine.run m' (Duration.milliseconds 25);
  ignore (Extconsist.release_due m'.Machine.extcons);
  (match Syscall.read k' cli cfd ~len:64 with
   | `Data banner -> check_str "served by the restored process" "hello from the past" banner
   | _ -> Alcotest.fail "no banner from restored server");
  let srv' = Kernel.proc_exn k' srv.Process.pid in
  check_int "restored server handled the request" 1
    (Context.reg_int (Process.main_thread srv').Thread.context 2)

(* ------------------------------------------------------------------ *)
(* Multi-threaded process restore                                      *)
(* ------------------------------------------------------------------ *)

let test_multithreaded_restore () =
  let m = Machine.create () in
  let k = m.Machine.kernel in
  let c = Kernel.new_container k ~name:"mt" in
  let p = spawn_parked k ~container:c.Container.cid ~name:"threads" in
  let t2 = Process.add_thread p ~program:"integ/parked" in
  let t3 = Process.add_thread p ~program:"integ/parked" in
  Context.set_reg_int t2.Thread.context 5 222;
  Context.set_reg_int t3.Thread.context 5 333;
  t3.Thread.state <- Thread.Blocked (Thread.Wait_sleep_until (Duration.seconds 30));
  let g = Machine.persist m (`Container c.Container.cid) in
  let b = Machine.checkpoint_now m g () in
  Store.wait_durable m.Machine.disk_store b.Types.durable_at;
  Machine.crash m;
  let m' = Machine.recover m in
  let g' = Machine.persist m' (`Container c.Container.cid) in
  let pids, _ = Machine.restore_group m' g' ~gen:b.Types.gen () in
  let p' = Kernel.proc_exn m'.Machine.kernel (List.hd pids) in
  check_int "three threads restored" 3 (List.length p'.Process.threads);
  let t2' = Option.get (Process.thread p' t2.Thread.tid) in
  let t3' = Option.get (Process.thread p' t3.Thread.tid) in
  check_int "thread register state" 222 (Context.reg_int t2'.Thread.context 5);
  check_int "thread register state" 333 (Context.reg_int t3'.Thread.context 5);
  check_bool "sleep wait state preserved" true
    (match t3'.Thread.state with
     | Thread.Blocked (Thread.Wait_sleep_until d) ->
       Duration.equal d (Duration.seconds 30)
     | _ -> false)

(* ------------------------------------------------------------------ *)
(* Error paths                                                         *)
(* ------------------------------------------------------------------ *)

let test_restore_pid_conflict_rejected () =
  let m = Machine.create () in
  let k = m.Machine.kernel in
  let c = Kernel.new_container k ~name:"conflict" in
  let _p = spawn_parked k ~container:c.Container.cid ~name:"app" in
  let g = Machine.persist m (`Container c.Container.cid) in
  let b = Machine.checkpoint_now m g () in
  (* Restoring on top of the live process without killing it first
     must be rejected (Machine.restore_group kills; the raw engine
     refuses). *)
  check_bool "pid conflict detected" true
    (try
       ignore
         (Restore.restore k ~store:m.Machine.disk_store ~gen:b.Types.gen
            ~pgid:g.Types.pgid ());
       false
     with Invalid_argument _ -> true)

let test_in_program_fdctl_mctl () =
  (* Programs can call sls_fdctl / sls_mctl through the syscall
     bridge. *)
  let m = Machine.create () in
  Machine.enable_sls_calls m;
  let k = m.Machine.kernel in
  let c = Kernel.new_container k ~name:"selftune" in
  let p = spawn_parked k ~container:c.Container.cid ~name:"app" in
  let g = Machine.persist m (`Container c.Container.cid) in
  ignore g;
  let e = Syscall.mmap_anon k p ~npages:2 in
  Syscall.mem_write k p ~vpn:e.Vmmap.start_vpn ~offset:0 ~value:1L;
  let fd = Syscall.open_file k p ~create:true "/tunable" in
  (match Syscall.sls k p (Kernel.Sls_fdctl (fd, false)) with
   | Kernel.Sls_time _ -> ()
   | Kernel.Sls_log _ -> Alcotest.fail "unexpected result");
  check_bool "fd flag cleared" true
    (not (Option.get (Fd.get p.Process.fdtable fd)).Fd.flags.Fd.ext_consistency);
  (match Syscall.sls k p (Kernel.Sls_mctl (e.Vmmap.start_vpn, false)) with
   | Kernel.Sls_time _ -> ()
   | Kernel.Sls_log _ -> Alcotest.fail "unexpected result");
  check_bool "region excluded" true (not e.Vmmap.persisted);
  let b = Machine.checkpoint_now m g () in
  check_int "excluded region not captured" 0 b.Types.pages_captured


let test_secondary_memory_backend_mirrors () =
  (* "Aurora allows for attaching multiple backends at the same time":
     with a memory backend attached alongside the disk, every
     checkpoint is mirrored and restores can come from either. The
     mirror takes the full image once, then deltas, also after it is
     detached and attached again. *)
  let m = Machine.create () in
  let k = m.Machine.kernel in
  let c = Kernel.new_container k ~name:"mirror" in
  let nkeys = 16 * 1024 * 1024 / 8 in
  let cfg =
    { (Aurora_apps.Kvstore.default_config ~nkeys ()) with
      Aurora_apps.Kvstore.spec = Aurora_apps.Workload.write_heavy ~nkeys;
      ops_per_step = 128;
      preload = true }
  in
  let p = Aurora_apps.Kvstore.spawn k ~container:c.Container.cid cfg in
  ignore (Scheduler.step_all k);
  let g = Machine.persist m ~interval:(Duration.seconds 10) (`Container c.Container.cid) in
  let primary = m.Machine.disk_store and mirror = m.Machine.mem_store in
  Machine.attach m g mirror;
  (* The pages the mirror imported at the checkpoint just taken; the
     full image is the store's data region. *)
  let imported () =
    let gen = Option.get (Store.latest mirror) in
    (Option.get (Store.gen_provenance mirror gen)).Store.pv_pages
  in
  let region = Aurora_apps.Kvstore.npages cfg in
  let b = Machine.checkpoint_now m g ~mode:`Full () in
  check_int "the first ship is the full image" region (imported ());
  let prev = ref b.Types.gen in
  for _ = 1 to 5 do
    Machine.run m (Duration.microseconds 200);
    let b = Machine.checkpoint_now m g () in
    let d = Store.diff primary ~from_gen:!prev ~to_gen:b.Types.gen in
    check_int "an incremental ship imports the changed pages"
      (d.Store.df_pages_added + d.Store.df_pages_changed) (imported ());
    check_bool "and fewer than the image" true (imported () < region);
    prev := b.Types.gen
  done;
  (* Each store's newest generation, restored into a kernel of its own
     so the group keeps running here. *)
  let digest_from store =
    let k' = (Machine.create ()).Machine.kernel in
    let gen = Option.get (Store.latest store) in
    let pids, _ = Restore.restore k' ~store ~gen ~pgid:g.Types.pgid () in
    Aurora_apps.Kvstore.region_digest k' (Kernel.proc_exn k' (List.hd pids)) cfg
  in
  let live = Aurora_apps.Kvstore.region_digest k p cfg in
  check_bool "restored from the memory mirror" true (Int64.equal live (digest_from mirror));
  check_bool "restored from disk" true (Int64.equal live (digest_from primary));
  (* Re-attaching resumes from the group's last import, which is still
     the mirror's newest generation: the next ship is a delta. *)
  Machine.detach m g mirror;
  Machine.attach m g mirror;
  Machine.run m (Duration.microseconds 200);
  let b = Machine.checkpoint_now m g () in
  let d = Store.diff primary ~from_gen:!prev ~to_gen:b.Types.gen in
  check_int "the first ship after re-attaching imports the changed pages"
    (d.Store.df_pages_added + d.Store.df_pages_changed) (imported ());
  check_bool "and fewer than the image" true (imported () < region)

(* Two groups share the memory store, and group B, already
   checkpointed on disk, attaches after group A has shipped there. Each
   group's session builds only on its own imports: B's first ship is its
   full image, not a delta against A's last disk generation (which holds
   B's pages too), and a ship that finds the other group's import on top
   is sent in full. So each group restores its live state from the
   memory store as from disk. *)
let test_groups_share_memory_backend () =
  let m = Machine.create () in
  let k = m.Machine.kernel in
  let spawn name =
    let c = Kernel.new_container k ~name in
    let nkeys = 4 * 1024 * 1024 / 8 in
    let cfg =
      { (Aurora_apps.Kvstore.default_config ~nkeys ()) with
        Aurora_apps.Kvstore.spec = Aurora_apps.Workload.write_heavy ~nkeys;
        ops_per_step = 128;
        preload = true }
    in
    let p = Aurora_apps.Kvstore.spawn k ~container:c.Container.cid cfg in
    let g = Machine.persist m ~interval:(Duration.seconds 10) (`Container c.Container.cid) in
    (g, p, cfg)
  in
  let ((ga, _, _) as a) = spawn "a" and ((gb, _, _) as b) = spawn "b" in
  ignore (Scheduler.step_all k);
  let mem = m.Machine.mem_store in
  ignore (Machine.checkpoint_now m gb ());
  Machine.attach m ga mem;
  ignore (Machine.checkpoint_now m ga ());
  Machine.run m (Duration.microseconds 200);
  ignore (Machine.checkpoint_now m ga ());
  Machine.attach m gb mem;
  let digest_from store g cfg =
    let k' = (Machine.create ()).Machine.kernel in
    let gen = Option.get (Store.latest store) in
    let pids, _ = Restore.restore k' ~store ~gen ~pgid:g.Types.pgid () in
    Aurora_apps.Kvstore.region_digest k' (Kernel.proc_exn k' (List.hd pids)) cfg
  in
  for round = 1 to 3 do
    Machine.run m (Duration.microseconds 200);
    ignore (Machine.checkpoint_now m gb ());
    ignore (Machine.checkpoint_now m ga ());
    List.iter
      (fun (name, (g, p, cfg)) ->
        let live = Aurora_apps.Kvstore.region_digest k p cfg in
        let msg from = Printf.sprintf "round %d: %s restored from %s" round name from in
        check_bool (msg "the memory store") true (Int64.equal live (digest_from mem g cfg));
        check_bool (msg "disk") true
          (Int64.equal live (digest_from m.Machine.disk_store g cfg)))
      [ ("group a", a); ("group b", b) ]
  done


(* A destination keeps only each group's newest import: once it has
   acknowledged one, it collects the group's older imports. The newest
   is the only delta base and what a restore reads, and it holds their
   pages through the COW tree. So the memory store of a group
   checkpointed every 10 ms for a second ends with one generation, and
   a restore from it gives the live region. *)
let test_memory_backend_keeps_newest_import () =
  let m = Machine.create () in
  let k = m.Machine.kernel in
  let c = Kernel.new_container k ~name:"kv" in
  let nkeys = 16 * 1024 * 1024 / 8 in
  let cfg =
    { (Aurora_apps.Kvstore.default_config ~nkeys ()) with
      Aurora_apps.Kvstore.spec = Aurora_apps.Workload.write_heavy ~nkeys;
      ops_per_step = 128;
      preload = true }
  in
  let p = Aurora_apps.Kvstore.spawn k ~container:c.Container.cid cfg in
  ignore (Scheduler.step_all k);
  let g =
    Machine.persist m ~interval:(Duration.milliseconds 10) (`Container c.Container.cid)
  in
  let mem = m.Machine.mem_store in
  Machine.attach m g mem;
  Machine.run m (Duration.seconds 1);
  let b = Machine.checkpoint_now m g () in
  check_bool "the last checkpoint committed" true (b.Types.status = `Ok);
  check_int "one generation on the memory store" 1 (List.length (Store.generations mem));
  let k' = (Machine.create ()).Machine.kernel in
  let pids, _ =
    Restore.restore k' ~store:mem ~gen:(Option.get (Store.latest mem)) ~pgid:g.Types.pgid ()
  in
  check_bool "restored from the memory store" true
    (Int64.equal
       (Aurora_apps.Kvstore.region_digest k p cfg)
       (Aurora_apps.Kvstore.region_digest k' (Kernel.proc_exn k' (List.hd pids)) cfg));
  check_bool "the memory store is consistent" true (Store.fsck_ok (Store.fsck mem))

(* ------------------------------------------------------------------ *)
(* Kernel-integrated record/replay                                     *)
(* ------------------------------------------------------------------ *)

(* A stateful server: every received byte bumps a counter kept in
   simulated memory and in a register. *)
let () =
  Program.register ~name:"integ/rr-server" (fun k p th ->
      let ctx = th.Thread.context in
      match ctx.Context.pc with
      | 0 ->
        let e = Syscall.mmap_anon k p ~npages:1 in
        Context.set_reg_int ctx 2 e.Vmmap.start_vpn;
        ctx.Context.pc <- 1;
        Program.Continue
      | _ -> (
        let fd = Context.reg_int ctx 1 in
        match Syscall.read k p fd ~len:1 with
        | `Data _ ->
          let n = Context.reg_int ctx 3 + 1 in
          Context.set_reg_int ctx 3 n;
          Syscall.mem_write k p ~vpn:(Context.reg_int ctx 2) ~offset:0
            ~value:(Int64.of_int n);
          Program.Continue
        | `Would_block -> (
          match Fd.get p.Process.fdtable fd with
          | Some { Fd.kind = Fd.Obj oid; _ } -> Program.Block (Thread.Wait_read oid)
          | _ -> Program.Exit_program 1)
        | `Eof -> Program.Exit_program 0))

let test_record_replay_reproduces_inputs () =
  let m = Machine.create () in
  let k = m.Machine.kernel in
  let c = Kernel.new_container k ~name:"svc" in
  let server = Kernel.spawn k ~container:c.Container.cid ~name:"rr-server"
      ~program:"integ/rr-server" () in
  let client = Kernel.spawn k ~name:"outside" ~program:"integ/parked" () in
  let sfd, cfd = Syscall.socketpair k server in
  let c_ofd = Option.get (Fd.get server.Process.fdtable cfd) in
  c_ofd.Fd.refcount <- c_ofd.Fd.refcount + 1;
  let client_fd = Fd.install client.Process.fdtable c_ofd in
  ignore (Fd.release server.Process.fdtable cfd);
  Context.set_reg_int (Process.main_thread server).Thread.context 1 sfd;
  let g = Machine.persist m (`Container c.Container.cid) in
  Machine.enable_recording m g;
  (* Baseline checkpoint of the initialized server. *)
  ignore (Scheduler.run_until_idle k);
  ignore (Machine.checkpoint_now m g ());
  let steps_at_ckpt =
    Context.reg_int (Process.main_thread server).Thread.context 3
  in
  (* The outside world sends five inputs; each is journaled on its way
     in and processed by the server. *)
  for _ = 1 to 5 do
    ignore (Syscall.write k client client_fd "!");
    ignore (Scheduler.run_until_idle k)
  done;
  let server_now = Kernel.proc_exn k server.Process.pid in
  let counter_page_before =
    Vmmap.read server_now.Process.vm
      ~vpn:(Context.reg_int (Process.main_thread server_now).Thread.context 2)
  in
  check_int "server consumed five inputs" (steps_at_ckpt + 5)
    (Context.reg_int (Process.main_thread server_now).Thread.context 3);
  check_int "five inputs journaled" 5 (List.length (Rr.recorded g));
  (* The failure workflow: roll back to the checkpoint and replay the
     journal — the client does NOT resend anything. *)
  let pids, replayed = Machine.rollback_and_replay m g in
  check_int "five inputs replayed" 5 replayed;
  let server' = Kernel.proc_exn k (List.hd pids) in
  check_int "rolled back" steps_at_ckpt
    (Context.reg_int (Process.main_thread server').Thread.context 3);
  ignore (Scheduler.run_until_idle k);
  check_int "re-execution reconsumed the journal" (steps_at_ckpt + 5)
    (Context.reg_int (Process.main_thread server').Thread.context 3);
  check_bool "memory state reproduced bit-for-bit" true
    (Content.equal counter_page_before
       (Vmmap.read server'.Process.vm
          ~vpn:(Context.reg_int (Process.main_thread server').Thread.context 2)))

let test_checkpoint_bounds_rr_log () =
  let m = Machine.create () in
  let k = m.Machine.kernel in
  let c = Kernel.new_container k ~name:"svc" in
  let server = Kernel.spawn k ~container:c.Container.cid ~name:"rr-server"
      ~program:"integ/rr-server" () in
  let client = Kernel.spawn k ~name:"outside" ~program:"integ/parked" () in
  let sfd, cfd = Syscall.socketpair k server in
  let c_ofd = Option.get (Fd.get server.Process.fdtable cfd) in
  c_ofd.Fd.refcount <- c_ofd.Fd.refcount + 1;
  let client_fd = Fd.install client.Process.fdtable c_ofd in
  ignore (Fd.release server.Process.fdtable cfd);
  Context.set_reg_int (Process.main_thread server).Thread.context 1 sfd;
  let g = Machine.persist m (`Container c.Container.cid) in
  Machine.enable_recording m g;
  ignore (Scheduler.run_until_idle k);
  for _ = 1 to 7 do
    ignore (Syscall.write k client client_fd "!");
    ignore (Scheduler.run_until_idle k)
  done;
  check_int "seven journaled" 7 (List.length (Rr.recorded g));
  ignore (Machine.checkpoint_now m g ());
  (* "Only keeping the records since the last checkpoint." *)
  check_int "journal truncated by the checkpoint" 0 (List.length (Rr.recorded g))


(* ------------------------------------------------------------------ *)
(* System soak: mixed applications, mid-run crash, full recovery       *)
(* ------------------------------------------------------------------ *)

let () =
  Program.register ~name:"sls/walker-integ" (fun k p th ->
      let ctx = th.Thread.context in
      if ctx.Context.pc = 0 then begin
        let e = Syscall.mmap_anon k p ~npages:(Context.reg_int ctx 2) in
        Context.set_reg_int ctx 1 e.Vmmap.start_vpn;
        ctx.Context.pc <- 1;
        Program.Continue
      end
      else begin
        let step = Context.reg_int ctx 4 in
        if step >= Context.reg_int ctx 3 then Program.Exit_program 0
        else begin
          Syscall.mem_write k p
            ~vpn:(Context.reg_int ctx 1 + (step mod Context.reg_int ctx 2))
            ~offset:0 ~value:(Int64.of_int step);
          Context.set_reg_int ctx 4 (step + 1);
          Program.Continue
        end
      end)

let spawn_walker' m =
  let k = m.Machine.kernel in
  let c = Kernel.new_container k ~name:"walk" in
  let p = Kernel.spawn k ~container:c.Container.cid ~name:"walker"
      ~program:"sls/walker-integ" () in
  let ctx = (Process.main_thread p).Thread.context in
  Context.set_reg_int ctx 2 64;
  Context.set_reg_int ctx 3 100_000_000;
  (c, p)

let test_system_soak () =
  (* Three dissimilar applications under independent persistence
     groups, periodic checkpoints, a power failure mid-run, full
     recovery, and continued execution — with a store integrity check
     at the end. *)
  let m = Machine.create () in
  Machine.enable_sls_calls m;
  let k = m.Machine.kernel in
  (* App 1: the KV store (Aurora persistence mode). *)
  let c1 = Kernel.new_container k ~name:"kv" in
  (* Transparent persistence (the paper's default): the store needs no
     persistence code; durability comes entirely from the periodic
     checkpoints. (Per-op `sls_ntflush` at this op rate would saturate
     the device — a group-commit concern for explicit ports, not for
     transparent mode.) *)
  let cfg =
    { (Aurora_apps.Kvstore.default_config ~nkeys:16384 ())
      with Aurora_apps.Kvstore.ops_per_step = 16 }
  in
  let _kv = Aurora_apps.Kvstore.spawn k ~container:c1.Container.cid cfg in
  let g1 = Machine.persist m ~interval:(Duration.milliseconds 5)
      (`Container c1.Container.cid) in
  (* App 2: an initialized serverless function. *)
  let c2 = Kernel.new_container k ~name:"fn" in
  let inst = Aurora_apps.Serverless.spawn k ~container:c2.Container.cid
      (Aurora_apps.Serverless.default_config ()) in
  let g2 = Machine.persist m ~interval:(Duration.milliseconds 10)
      (`Container c2.Container.cid) in
  (* App 3: a walker. *)
  let c3, walker = spawn_walker' m in
  let g3 = Machine.persist m ~interval:(Duration.milliseconds 7)
      (`Container c3.Container.cid) in
  ignore inst;
  (* Run; everything checkpoints on its own schedule. *)
  Machine.run m (Duration.milliseconds 60);
  check_bool "kv checkpointed" true (Ckpt_spans.count m g1 >= 3);
  check_bool "fn checkpointed" true (Ckpt_spans.count m g2 >= 2);
  check_bool "walker checkpointed" true (Ckpt_spans.count m g3 >= 3);
  let walker_steps_before =
    Context.reg_int (Process.main_thread walker).Thread.context 4
  in
  (* Power failure mid-run (no draining). *)
  Machine.crash m;
  let m' = Machine.recover m in
  (let r = Store.fsck m'.Machine.disk_store in
   if not (Store.fsck_ok r) then
     Alcotest.failf "fsck after soak crash: %s" (String.concat "; " r.Store.problems));
  (* Restore all three groups and keep running. *)
  let g1' = Machine.persist m' (`Container c1.Container.cid) in
  let g2' = Machine.persist m' (`Container c2.Container.cid) in
  let g3' = Machine.persist m' (`Container c3.Container.cid) in
  List.iter
    (fun g -> ignore (Machine.restore_group m' g ()))
    [ g1'; g2'; g3' ];
  (* kv + fn + walker; the fn invoker lived outside any group and died
     with the machine. *)
  check_int "all persisted processes back" 3 (List.length (Machine.ps m'));
  let walker' =
    List.find (fun (p : Process.t) -> p.Process.name = "walker")
      (Kernel.processes m'.Machine.kernel)
  in
  let steps_restored = Context.reg_int (Process.main_thread walker').Thread.context 4 in
  check_bool "walker state from a real checkpoint" true
    (steps_restored > 0 && steps_restored <= walker_steps_before);
  Machine.run m' (Duration.milliseconds 20);
  check_bool "walker continues after recovery" true
    (Context.reg_int (Process.main_thread walker').Thread.context 4 > steps_restored);
  (let r = Store.fsck m'.Machine.disk_store in
   if not (Store.fsck_ok r) then
     Alcotest.failf "fsck after continued run: %s" (String.concat "; " r.Store.problems))


let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "integration"
    [
      ( "posix-zoo",
        [ Alcotest.test_case "every object class roundtrips" `Quick
            test_posix_zoo_roundtrip ] );
      ( "policy",
        [
          Alcotest.test_case "mctl exclusion honored" `Quick test_mctl_exclusion;
          Alcotest.test_case "named checkpoint survives gc" `Quick
            test_named_checkpoint_survives_gc;
        ] );
      ( "replication",
        [
          Alcotest.test_case "remote failover" `Quick test_remote_replication_failover;
          Alcotest.test_case "memory backend mirrors" `Quick
            test_secondary_memory_backend_mirrors;
          Alcotest.test_case "groups share the memory backend" `Quick
            test_groups_share_memory_backend;
          Alcotest.test_case "a destination keeps each group's newest import" `Quick
            test_memory_backend_keeps_newest_import;
        ] );
      ( "memory",
        [
          qt prop_roundtrip_random_memory;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "groups are independent" `Quick test_two_groups_isolated;
          Alcotest.test_case "zombies not checkpointed" `Quick
            test_zombies_not_checkpointed;
        ] );
      ( "servers",
        [
          Alcotest.test_case "blocked accept survives restore" `Quick
            test_blocked_server_restored_accepts;
          Alcotest.test_case "multithreaded restore" `Quick test_multithreaded_restore;
        ] );
      ( "errors-and-api",
        [
          Alcotest.test_case "pid conflict rejected" `Quick
            test_restore_pid_conflict_rejected;
          Alcotest.test_case "in-program fdctl/mctl" `Quick test_in_program_fdctl_mctl;
        ] );
      ( "record-replay",
        [
          Alcotest.test_case "journal + rollback reproduces execution" `Quick
            test_record_replay_reproduces_inputs;
          Alcotest.test_case "checkpoints bound the journal" `Quick
            test_checkpoint_bounds_rr_log;
        ] );
      ( "soak",
        [ Alcotest.test_case "mixed apps, crash mid-run, full recovery" `Quick
            test_system_soak ] );
      ( "determinism",
        [ Alcotest.test_case "images are canonical bytes" `Quick
            test_checkpoint_images_canonical ] );
    ]
