(* Tests for the process layer: contexts, fork semantics, the
   cooperative scheduler (wakeups, sleeps, deadlock detection), and
   syscalls exercised by small state-machine programs — the same
   machinery the example applications run on. *)

open Aurora_simtime
open Aurora_posix
open Aurora_proc

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Test programs                                                       *)
(* ------------------------------------------------------------------ *)

(* Exits immediately with status 42. *)
let () = Program.register ~name:"test/exit42" (fun _k _p _th -> Program.Exit_program 42)

(* Writes its pc into memory [reg1]=vpn for reg2 iterations, then
   exits 0. *)
let () =
  Program.register ~name:"test/writer" (fun k p th ->
      let ctx = th.Thread.context in
      let vpn = Context.reg_int ctx 1 in
      let count = Context.reg_int ctx 2 in
      if ctx.Context.pc >= count then Program.Exit_program 0
      else begin
        Syscall.mem_write k p ~vpn:(vpn + (ctx.Context.pc mod 4)) ~offset:0
          ~value:(Int64.of_int ctx.Context.pc);
        ctx.Context.pc <- ctx.Context.pc + 1;
        Program.Continue
      end)

(* Producer: writes reg2 messages into pipe write-fd reg1, then closes
   it and exits. *)
let () =
  Program.register ~name:"test/producer" (fun k p th ->
      let ctx = th.Thread.context in
      let wfd = Context.reg_int ctx 1 in
      let total = Context.reg_int ctx 2 in
      if ctx.Context.pc >= total then begin
        Syscall.close k p wfd;
        Program.Exit_program 0
      end
      else
        match Syscall.write k p wfd (Printf.sprintf "msg-%03d;" ctx.Context.pc) with
        | `Written _ ->
          ctx.Context.pc <- ctx.Context.pc + 1;
          Program.Continue
        | `Would_block -> (
          match Fd.get p.Process.fdtable wfd with
          | Some { Fd.kind = Fd.Obj oid; _ } -> Program.Block (Thread.Wait_write oid)
          | _ -> Program.Exit_program 1)
        | `Broken -> Program.Exit_program 1)

(* Consumer: reads pipe read-fd reg1 until EOF; accumulates byte count
   in reg3; exits with 0. *)
let () =
  Program.register ~name:"test/consumer" (fun k p th ->
      let ctx = th.Thread.context in
      let rfd = Context.reg_int ctx 1 in
      match Syscall.read k p rfd ~len:64 with
      | `Data s ->
        Context.set_reg_int ctx 3 (Context.reg_int ctx 3 + String.length s);
        Program.Continue
      | `Would_block -> (
        match Fd.get p.Process.fdtable rfd with
        | Some { Fd.kind = Fd.Obj oid; _ } -> Program.Block (Thread.Wait_read oid)
        | _ -> Program.Exit_program 1)
      | `Eof ->
        Syscall.close k p rfd;
        Program.Exit_program 0)

(* Forker: forks; the child exits 7; the parent waits and exits with
   the child's status. pc: 0 = fork, 1 = wait. *)
let () =
  Program.register ~name:"test/forker" (fun k p th ->
      let ctx = th.Thread.context in
      match ctx.Context.pc with
      | 0 ->
        if Context.reg ctx 0 = 0L && p.Process.ppid <> 0 then
          (* We are the child (reg0 = 0 after fork). *)
          Program.Exit_program 7
        else begin
          ignore (Syscall.fork k p th);
          ctx.Context.pc <- 1;
          (* Both parent and child resume at pc 1... the child's reg0
             is 0, so route it at the next step. *)
          Program.Continue
        end
      | 1 ->
        if Context.reg ctx 0 = 0L then Program.Exit_program 7 (* child *)
        else (
          match Syscall.waitpid k p (-1) with
          | `Reaped (_, status) -> Program.Exit_program status
          | `Would_block -> Program.Block (Thread.Wait_child (-1)))
      | _ -> Program.Exit_program 99)

(* Sleeper: sleeps reg1 microseconds (absolute deadline computed on
   first step), then exits 0. *)
let () =
  Program.register ~name:"test/sleeper" (fun k p th ->
      let ctx = th.Thread.context in
      match ctx.Context.pc with
      | 0 ->
        let dl =
          Duration.add (Clock.now k.Kernel.clock)
            (Duration.microseconds (Context.reg_int ctx 1))
        in
        Context.set_reg ctx 4 (Int64.of_int (Duration.to_ns dl));
        ctx.Context.pc <- 1;
        Program.Block (Syscall.sleep_until k p dl)
      | _ ->
        let dl = Duration.nanoseconds (Int64.to_int (Context.reg ctx 4)) in
        if Duration.(Clock.now k.Kernel.clock >= dl) then Program.Exit_program 0
        else Program.Block (Thread.Wait_sleep_until dl))

(* Echo server: listens on tcp reg1, accepts one connection, echoes
   whatever arrives until EOF, then exits. pc 0=setup, 1=accept,
   2=echo loop (conn fd in reg5). *)
let () =
  Program.register ~name:"test/echo-server" (fun k p th ->
      let ctx = th.Thread.context in
      match ctx.Context.pc with
      | 0 ->
        let fd = Syscall.socket k p `Tcp in
        Syscall.bind_listen k p fd ~addr:(string_of_int (Context.reg_int ctx 1))
          ~backlog:4;
        Context.set_reg_int ctx 6 fd;
        ctx.Context.pc <- 1;
        Program.Continue
      | 1 -> (
        let lfd = Context.reg_int ctx 6 in
        match Syscall.accept k p lfd with
        | `Fd conn ->
          Context.set_reg_int ctx 5 conn;
          ctx.Context.pc <- 2;
          Program.Continue
        | `Would_block -> (
          match Fd.get p.Process.fdtable lfd with
          | Some { Fd.kind = Fd.Obj oid; _ } -> Program.Block (Thread.Wait_accept oid)
          | _ -> Program.Exit_program 1))
      | _ -> (
        let conn = Context.reg_int ctx 5 in
        match Syscall.read k p conn ~len:128 with
        | `Data s ->
          ignore (Syscall.write k p conn s);
          Program.Continue
        | `Would_block -> (
          match Fd.get p.Process.fdtable conn with
          | Some { Fd.kind = Fd.Obj oid; _ } -> Program.Block (Thread.Wait_read oid)
          | _ -> Program.Exit_program 1)
        | `Eof -> Program.Exit_program 0))

(* Client: connects to tcp reg1, sends "ping", waits for the 4-byte
   echo, exits 0 on success. *)
let () =
  Program.register ~name:"test/client" (fun k p th ->
      let ctx = th.Thread.context in
      match ctx.Context.pc with
      | 0 -> (
        let fd = Syscall.socket k p `Tcp in
        match Syscall.connect k p fd ~addr:(string_of_int (Context.reg_int ctx 1)) with
        | `Ok ->
          Context.set_reg_int ctx 5 fd;
          ignore (Syscall.write k p fd "ping");
          ctx.Context.pc <- 1;
          Program.Continue
        | `Refused ->
          (* Server may not have bound yet; retry shortly. *)
          Syscall.close k p fd;
          Program.Block
            (Thread.Wait_sleep_until
               (Duration.add (Clock.now k.Kernel.clock) (Duration.microseconds 10))))
      | _ -> (
        let fd = Context.reg_int ctx 5 in
        match Syscall.read k p fd ~len:16 with
        | `Data "ping" ->
          Syscall.close k p fd;
          Program.Exit_program 0
        | `Data _ -> Program.Exit_program 2
        | `Would_block -> (
          match Fd.get p.Process.fdtable fd with
          | Some { Fd.kind = Fd.Obj oid; _ } -> Program.Block (Thread.Wait_read oid)
          | _ -> Program.Exit_program 1)
        | `Eof -> Program.Exit_program 3))

(* ------------------------------------------------------------------ *)
(* Tests                                                               *)
(* ------------------------------------------------------------------ *)

let test_exit_status () =
  let k = Kernel.create () in
  let p = Kernel.spawn k ~name:"x" ~program:"test/exit42" () in
  let reason = Scheduler.run_until_idle k in
  check_bool "all exited" true (reason = Scheduler.All_exited);
  check_int "status" 42 (Option.get p.Process.exit_status)

let test_unknown_program_dies () =
  let k = Kernel.create () in
  let p = Kernel.spawn k ~name:"x" ~program:"no/such/binary" () in
  ignore (Scheduler.run_until_idle k);
  check_int "sigsys-ish" 127 (Option.get p.Process.exit_status)

let test_writer_program_memory () =
  let k = Kernel.create () in
  let p = Kernel.spawn k ~name:"w" ~program:"test/writer" () in
  let e = Syscall.mmap_anon k p ~npages:4 in
  let ctx = (Process.main_thread p).Thread.context in
  Context.set_reg_int ctx 1 e.Aurora_vm.Vmmap.start_vpn;
  Context.set_reg_int ctx 2 100;
  ignore (Scheduler.run_until_idle k);
  check_int "exit" 0 (Option.get p.Process.exit_status)

let test_pipe_producer_consumer () =
  let k = Kernel.create () in
  let prod = Kernel.spawn k ~name:"prod" ~program:"test/producer" () in
  let cons = Kernel.spawn k ~name:"cons" ~program:"test/consumer" () in
  (* Create a pipe in the producer, hand the read end to the consumer
     (simulating inheritance). *)
  let rfd, wfd = Syscall.pipe k prod in
  let r_ofd = Option.get (Fd.get prod.Process.fdtable rfd) in
  r_ofd.Fd.refcount <- r_ofd.Fd.refcount + 1;
  Fd.install_at cons.Process.fdtable 3 r_ofd;
  ignore (Fd.release prod.Process.fdtable rfd);
  Context.set_reg_int (Process.main_thread prod).Thread.context 1 wfd;
  Context.set_reg_int (Process.main_thread prod).Thread.context 2 500;
  Context.set_reg_int (Process.main_thread cons).Thread.context 1 3;
  ignore (Scheduler.run_until_idle k);
  check_int "producer done" 0 (Option.get prod.Process.exit_status);
  check_int "consumer done" 0 (Option.get cons.Process.exit_status);
  (* 500 messages x 8 bytes *)
  check_int "all bytes crossed" 4000
    (Context.reg_int (Process.main_thread cons).Thread.context 3)

let test_fork_and_wait () =
  let k = Kernel.create () in
  let p = Kernel.spawn k ~name:"f" ~program:"test/forker" () in
  ignore (Scheduler.run_until_idle k);
  check_int "parent got child status" 7 (Option.get p.Process.exit_status);
  (* Child was reaped. *)
  check_int "one process left" 1 (List.length (Kernel.processes k))

let test_sleep_advances_clock () =
  let k = Kernel.create () in
  let p = Kernel.spawn k ~name:"s" ~program:"test/sleeper" () in
  Context.set_reg_int (Process.main_thread p).Thread.context 1 5_000; (* 5 ms *)
  ignore (Scheduler.run_until_idle k);
  check_int "exited" 0 (Option.get p.Process.exit_status);
  check_bool "clock jumped past deadline" true
    Duration.(Clock.now k.Kernel.clock >= Duration.milliseconds 5)

let test_echo_server_client () =
  let k = Kernel.create () in
  let srv = Kernel.spawn k ~name:"srv" ~program:"test/echo-server" () in
  let cli = Kernel.spawn k ~name:"cli" ~program:"test/client" () in
  Context.set_reg_int (Process.main_thread srv).Thread.context 1 7000;
  Context.set_reg_int (Process.main_thread cli).Thread.context 1 7000;
  ignore (Scheduler.run_until_idle k);
  check_int "client round trip" 0 (Option.get cli.Process.exit_status)

let test_determinism () =
  let run () =
    let k = Kernel.create () in
    let prod = Kernel.spawn k ~name:"prod" ~program:"test/producer" () in
    let cons = Kernel.spawn k ~name:"cons" ~program:"test/consumer" () in
    let rfd, wfd = Syscall.pipe k prod in
    let r_ofd = Option.get (Fd.get prod.Process.fdtable rfd) in
    r_ofd.Fd.refcount <- r_ofd.Fd.refcount + 1;
    Fd.install_at cons.Process.fdtable 3 r_ofd;
    ignore (Fd.release prod.Process.fdtable rfd);
    Context.set_reg_int (Process.main_thread prod).Thread.context 1 wfd;
    Context.set_reg_int (Process.main_thread prod).Thread.context 2 200;
    Context.set_reg_int (Process.main_thread cons).Thread.context 1 3;
    ignore (Scheduler.run_until_idle k);
    Duration.to_ns (Clock.now k.Kernel.clock)
  in
  check_int "bit-identical reruns" (run ()) (run ())

let test_idle_detection () =
  (* A consumer with no producer and an open write end: blocked
     forever -> Idle, not livelock. *)
  let k = Kernel.create () in
  let cons = Kernel.spawn k ~name:"cons" ~program:"test/consumer" () in
  let rfd, _wfd = Syscall.pipe k cons in
  Context.set_reg_int (Process.main_thread cons).Thread.context 1 rfd;
  let reason = Scheduler.run_until_idle k in
  check_bool "idle" true (reason = Scheduler.Idle)

let test_run_until_deadline () =
  let k = Kernel.create () in
  let p = Kernel.spawn k ~name:"s" ~program:"test/sleeper" () in
  Context.set_reg_int (Process.main_thread p).Thread.context 1 1_000_000; (* 1 s *)
  let reason = Scheduler.run k ~until:(Duration.milliseconds 10) in
  check_bool "deadline stop" true (reason = Scheduler.Deadline);
  check_bool "still alive" true (p.Process.exit_status = None)

let test_zombie_until_reaped () =
  let k = Kernel.create () in
  let parent = Kernel.spawn k ~name:"p" ~program:"test/exit42" () in
  let child = Kernel.spawn k ~parent:parent.Process.pid ~name:"c" ~program:"test/exit42" () in
  ignore (Scheduler.run_until_idle k);
  check_bool "child zombie retained" true (Kernel.proc k child.Process.pid <> None);
  (match Syscall.waitpid k parent (-1) with
   | `Reaped (pid, 42) -> check_int "reaped child" child.Process.pid pid
   | _ -> Alcotest.fail "expected reap");
  check_bool "child gone" true (Kernel.proc k child.Process.pid = None)

let test_fork_copies_memory_cow () =
  let k = Kernel.create () in
  let p = Kernel.spawn k ~name:"p" ~program:"test/exit42" () in
  let e = Syscall.mmap_anon k p ~npages:2 in
  let vpn = e.Aurora_vm.Vmmap.start_vpn in
  Syscall.mem_write k p ~vpn ~offset:0 ~value:11L;
  let th = Process.main_thread p in
  let child = Syscall.fork k p th in
  check_bool "child sees parent memory" true
    (Int64.equal (Syscall.mem_read k p ~vpn ~offset:0)
       (Syscall.mem_read k child ~vpn ~offset:0));
  Syscall.mem_write k child ~vpn ~offset:0 ~value:22L;
  check_bool "cow isolation" false
    (Int64.equal (Syscall.mem_read k p ~vpn ~offset:0)
       (Syscall.mem_read k child ~vpn ~offset:0));
  check_bool "fork sets regs" true
    (Context.reg (Process.main_thread child).Thread.context 0 = 0L
    && Context.reg th.Thread.context 0 = Int64.of_int child.Process.pid)

let test_exit_closes_fds () =
  let k = Kernel.create () in
  let a = Kernel.spawn k ~name:"a" ~program:"test/exit42" () in
  let b = Kernel.spawn k ~name:"b" ~program:"test/consumer" () in
  let rfd, wfd = Syscall.pipe k a in
  (* Hand the read end to b. *)
  let r_ofd = Option.get (Fd.get a.Process.fdtable rfd) in
  r_ofd.Fd.refcount <- r_ofd.Fd.refcount + 1;
  Fd.install_at b.Process.fdtable 5 r_ofd;
  ignore (Fd.release a.Process.fdtable rfd);
  Context.set_reg_int (Process.main_thread b).Thread.context 1 5;
  ignore wfd;
  (* When a exits, the write end closes, so b must see EOF and exit
     cleanly rather than idle forever. *)
  ignore (Scheduler.run_until_idle k);
  check_int "b exited via eof" 0 (Option.get b.Process.exit_status)

let test_shm_between_processes () =
  let k = Kernel.create () in
  let a = Kernel.spawn k ~name:"a" ~program:"test/exit42" () in
  let b = Kernel.spawn k ~name:"b" ~program:"test/exit42" () in
  let oid = Syscall.shm_open k a ~flavor:Shm.Posix_shm ~name:"/seg" ~npages:4 in
  let oid' = Syscall.shm_open k b ~flavor:Shm.Posix_shm ~name:"/seg" ~npages:4 in
  check_int "same segment by name" oid oid';
  let ea = Syscall.shm_attach k a oid in
  let eb = Syscall.shm_attach k b oid in
  Syscall.mem_write k a ~vpn:ea.Aurora_vm.Vmmap.start_vpn ~offset:0 ~value:5L;
  check_bool "visible across processes" true
    (Int64.equal
       (Syscall.mem_read k a ~vpn:ea.Aurora_vm.Vmmap.start_vpn ~offset:0)
       (Syscall.mem_read k b ~vpn:eb.Aurora_vm.Vmmap.start_vpn ~offset:0))

let test_containers () =
  let k = Kernel.create () in
  let c = Kernel.new_container k ~name:"web" in
  let p1 = Kernel.spawn k ~container:c.Container.cid ~name:"a" ~program:"test/exit42" () in
  let _p2 = Kernel.spawn k ~name:"b" ~program:"test/exit42" () in
  let members = Kernel.container_procs k c.Container.cid in
  check_int "one member" 1 (List.length members);
  check_int "right member" p1.Process.pid (List.hd members).Process.pid;
  check_bool "bad container rejected" true
    (try
       ignore (Kernel.spawn k ~container:99 ~name:"x" ~program:"test/exit42" ());
       false
     with Invalid_argument _ -> true)


let test_tcp_close_releases_port () =
  let k = Kernel.create () in
  let p = Kernel.spawn k ~name:"srv" ~program:"test/exit42" () in
  let fd = Syscall.socket k p `Tcp in
  Syscall.bind_listen k p fd ~addr:"9000" ~backlog:2;
  check_bool "port taken" true
    (Aurora_posix.Netstack.listener_on k.Kernel.netstack ~port:9000 <> None);
  Syscall.close k p fd;
  check_bool "port released on close" true
    (Aurora_posix.Netstack.listener_on k.Kernel.netstack ~port:9000 = None);
  (* And it can be bound again. *)
  let fd2 = Syscall.socket k p `Tcp in
  Syscall.bind_listen k p fd2 ~addr:"9000" ~backlog:2;
  check_bool "rebindable" true
    (Aurora_posix.Netstack.listener_on k.Kernel.netstack ~port:9000 <> None)

let test_unix_bind_namespace_released () =
  let k = Kernel.create () in
  let p = Kernel.spawn k ~name:"srv" ~program:"test/exit42" () in
  let fd = Syscall.socket k p `Unix in
  Syscall.bind_listen k p fd ~addr:"/run/app.sock" ~backlog:2;
  check_bool "name bound" true (Hashtbl.mem k.Kernel.unix_ns "/run/app.sock");
  Syscall.close k p fd;
  check_bool "name released" true (not (Hashtbl.mem k.Kernel.unix_ns "/run/app.sock"))

let test_context_serialize_roundtrip () =
  let ctx = Context.create ~program:"test/writer" in
  ctx.Context.pc <- 17;
  Context.set_reg ctx 3 123456789L;
  let w = Serial.writer () in
  Context.serialize ctx w;
  let ctx' = Context.deserialize (Serial.reader (Serial.contents w)) in
  Alcotest.(check string) "program" "test/writer" ctx'.Context.program;
  check_int "pc" 17 ctx'.Context.pc;
  check_bool "regs" true (Int64.equal 123456789L (Context.reg ctx' 3))

let test_thread_serialize_blocked () =
  let th = Thread.create ~tid:3 ~program:"test/consumer" in
  th.Thread.state <- Thread.Blocked (Thread.Wait_read 55);
  let w = Serial.writer () in
  Thread.serialize th w;
  let th' = Thread.deserialize (Serial.reader (Serial.contents w)) in
  check_int "tid" 3 th'.Thread.tid;
  check_bool "still blocked on same object" true
    (th'.Thread.state = Thread.Blocked (Thread.Wait_read 55))

let () =
  Alcotest.run "proc"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "exit status" `Quick test_exit_status;
          Alcotest.test_case "unknown program dies" `Quick test_unknown_program_dies;
          Alcotest.test_case "writer program" `Quick test_writer_program_memory;
          Alcotest.test_case "zombie until reaped" `Quick test_zombie_until_reaped;
          Alcotest.test_case "exit closes descriptors" `Quick test_exit_closes_fds;
        ] );
      ( "fork",
        [
          Alcotest.test_case "fork + waitpid" `Quick test_fork_and_wait;
          Alcotest.test_case "fork cow memory" `Quick test_fork_copies_memory_cow;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "pipe producer/consumer" `Quick test_pipe_producer_consumer;
          Alcotest.test_case "sleep advances clock" `Quick test_sleep_advances_clock;
          Alcotest.test_case "echo server/client" `Quick test_echo_server_client;
          Alcotest.test_case "deterministic reruns" `Quick test_determinism;
          Alcotest.test_case "idle detection" `Quick test_idle_detection;
          Alcotest.test_case "deadline stop" `Quick test_run_until_deadline;
        ] );
      ( "objects",
        [
          Alcotest.test_case "shm across processes" `Quick test_shm_between_processes;
          Alcotest.test_case "containers" `Quick test_containers;
          Alcotest.test_case "tcp port lifecycle" `Quick test_tcp_close_releases_port;
          Alcotest.test_case "unix name lifecycle" `Quick
            test_unix_bind_namespace_released;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "context roundtrip" `Quick test_context_serialize_roundtrip;
          Alcotest.test_case "blocked thread roundtrip" `Quick
            test_thread_serialize_blocked;
        ] );
    ]
