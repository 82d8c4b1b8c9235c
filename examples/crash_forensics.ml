(* Crash forensics with record/replay (§4).

   "Aurora's low overhead checkpointing makes record/replay practical
   in production, enabling developers to capture an application
   moments before a crash." A service processes requests from the
   outside world; every boundary input is journaled transparently;
   checkpoints keep the journal short. When the service hits a fatal
   bug, the developer rolls it back to the last checkpoint and watches
   the final requests re-execute deterministically — including the one
   that kills it.

   Run with: dune exec examples/crash_forensics.exe *)

open Aurora_vm
open Aurora_posix
open Aurora_proc
open Aurora_sls

let say fmt = Printf.printf (fmt ^^ "\n%!")

let () =
  Program.register ~name:"example/world" (fun _ _ _ ->
      Program.Block Aurora_proc.Thread.Wait_forever)

(* The service: parses one-byte commands. 'a'..'y' are normal work;
   'z' trips an assertion (the bug). *)
let () =
  Program.register ~name:"example/fragile-service" (fun k p th ->
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
        | `Data "z" ->
          (* The bug: a request the service cannot survive. *)
          Program.Exit_program 134 (* simulated SIGABRT *)
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

let () =
  say "== Crash forensics with record/replay ==";
  let m = Machine.create () in
  let k = m.Machine.kernel in
  let c = Kernel.new_container k ~name:"prod" in
  let server = Kernel.spawn k ~container:c.Container.cid ~name:"service"
      ~program:"example/fragile-service" () in
  let client = Kernel.spawn k ~name:"world" ~program:"example/world" () in
  let sfd, cfd = Syscall.socketpair k server in
  let c_ofd = Option.get (Fd.get server.Process.fdtable cfd) in
  c_ofd.Fd.refcount <- c_ofd.Fd.refcount + 1;
  let client_fd = Fd.install client.Process.fdtable c_ofd in
  ignore (Fd.release server.Process.fdtable cfd);
  Context.set_reg_int (Process.main_thread server).Thread.context 1 sfd;

  (* Production setup: persistence + transparent input recording. *)
  let g = Machine.persist m (`Container c.Container.cid) in
  Machine.enable_recording m g;
  ignore (Scheduler.run_until_idle k);
  ignore (Machine.checkpoint_now m g ());
  say "service running under checkpoints; boundary inputs are journaled";

  (* Traffic arrives... the last request is the killer. *)
  let requests = [ "a"; "b"; "c"; "q"; "z" ] in
  List.iter
    (fun req ->
      ignore (Syscall.write k client client_fd req);
      ignore (Scheduler.run_until_idle k))
    requests;
  let dead = Kernel.proc_exn k server.Process.pid in
  say "service CRASHED with status %d after %d requests"
    (Option.get dead.Process.exit_status)
    (List.length requests);
  say "journal since the last checkpoint: %d records (bounded by checkpointing)"
    (List.length (Rr.recorded g));

  (* Forensics: roll back and watch it happen again, deterministically. *)
  say "";
  say "rolling back to the last checkpoint and replaying the journal...";
  let pids, replayed = Machine.rollback_and_replay m g in
  say "restored pid %d; %d recorded inputs re-delivered" (List.hd pids) replayed;
  ignore (Scheduler.run_until_idle k);
  let server' = Kernel.proc_exn k (List.hd pids) in
  (match server'.Process.exit_status with
   | Some 134 ->
     say "the service crashed AGAIN with status 134 after reprocessing %d requests -"
       (Context.reg_int (Process.main_thread server').Thread.context 3);
     say "the developer can now single-step those last moments at will"
   | Some s -> say "unexpected exit %d" s
   | None -> say "unexpected: service survived the replay");
  say "";
  say "(the journal is one checkpoint-interval long: 'a very small disk and";
  say " CPU overhead compared to standalone RR' - Section 4)"
