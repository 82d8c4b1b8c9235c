(* Tests for the application layer: workload purity, the KV store's
   three persistence modes (including crash-recovery equality and the
   fork-snapshot path), the serverless runtime, and record/replay over
   rollback. *)

open Aurora_simtime
open Aurora_proc
open Aurora_sls
open Aurora_apps

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)
(* ------------------------------------------------------------------ *)

let test_workload_pure () =
  let spec = Workload.read_heavy ~nkeys:10_000 in
  for opnum = 0 to 500 do
    let a = Workload.op_of spec ~opnum in
    let b = Workload.op_of spec ~opnum in
    check_bool "pure function" true (a = b)
  done

let test_workload_bounds_and_mix () =
  let spec = Workload.read_heavy ~nkeys:1_000 in
  let writes = ref 0 and hot = ref 0 in
  let n = 20_000 in
  for opnum = 0 to n - 1 do
    let kind, key, _ = Workload.op_of spec ~opnum in
    check_bool "key in range" true (key >= 0 && key < 1_000);
    if Workload.is_write kind then incr writes;
    if key < 200 then incr hot
  done;
  (* ~10% writes, ~80%+ hot accesses. *)
  check_bool "write ratio" true (!writes > n / 20 && !writes < n / 5);
  check_bool "hot skew" true (!hot > n * 7 / 10)

let test_workload_page_mapping () =
  check_int "key 0" 0 (Workload.page_of_key 0);
  check_int "key 511 same page" 0 (Workload.page_of_key 511);
  check_int "key 512 next page" 1 (Workload.page_of_key 512);
  check_int "offset" 8 (Workload.offset_of_key 513);
  check_int "pages for 1000 keys" 2
    (Workload.pages_needed (Workload.uniform_5050 ~nkeys:1000))

(* ------------------------------------------------------------------ *)
(* KV store                                                            *)
(* ------------------------------------------------------------------ *)

let run_kv_ops m p ~until_ops =
  let k = m.Machine.kernel in
  let guard = ref 0 in
  while Kvstore.ops_done p < until_ops && !guard < 2_000_000 do
    ignore (Scheduler.step_all k);
    incr guard
  done;
  check_bool "made progress" true (Kvstore.ops_done p >= until_ops)

let test_kv_ephemeral_runs () =
  let m = Machine.create () in
  let c = Kvstore.default_config ~nkeys:4096 () in
  let p = Kvstore.spawn m.Machine.kernel { c with Kvstore.ops_limit = 2_000 } in
  Machine.run_until_idle m;
  check_int "completed all ops" 2_000 (Kvstore.ops_done p);
  check_int "clean exit" 0 (Option.get p.Process.exit_status)

let test_kv_wal_crash_recovery_equality () =
  (* Run with WAL persistence, crash, recover in a new process: the
     data region must be bit-identical. *)
  let m = Machine.create ~fs_with_disk:true () in
  let k = m.Machine.kernel in
  let cfg =
    { (Kvstore.default_config ~mode:Kvstore.Wal ~nkeys:2048 ()) with
      Kvstore.ops_limit = 0; snapshot_every = 0 (* no fork snapshots here *);
      fsync_every = 1 }
  in
  let p = Kvstore.spawn k cfg in
  run_kv_ops m p ~until_ops:1_500;
  let digest_before = Kvstore.region_digest k p cfg in
  let ops_before = Kvstore.ops_done p in
  (* Power failure: the process dies, memory is gone, the fsynced WAL
     survives. *)
  Syscall.exit_process k p 137;
  Kernel.remove_proc k p.Process.pid;
  Aurora_vfs.Memfs.crash k.Kernel.fs;
  let p' = Kvstore.spawn k ~recover:true cfg in
  (* Let recovery run (pc 0 does the whole replay in one step). The
     recovered cursor lands at the last logged mutation — trailing
     reads are not in the log (exactly like AOF replay) — so it may
     trail the pre-crash op count by a few read-only operations. *)
  ignore (Scheduler.step_all k);
  check_bool "op counter recovered to the last mutation" true
    (let r = Kvstore.ops_done p' in
     r <= ops_before && r > ops_before - 64);
  check_bool "region identical after recovery" true
    (Int64.equal digest_before (Kvstore.region_digest k p' cfg))

let test_kv_fork_snapshot_cycle () =
  (* Fork-snapshot + truncated WAL: recovery uses snapshot + tail. *)
  let m = Machine.create ~fs_with_disk:true () in
  let k = m.Machine.kernel in
  let cfg =
    { (Kvstore.default_config ~mode:Kvstore.Wal ~nkeys:1024 ()) with
      Kvstore.snapshot_every = 400; fsync_every = 1; ops_per_step = 16 }
  in
  let p = Kvstore.spawn k cfg in
  run_kv_ops m p ~until_ops:1_400;
  (* Let snapshot children finish and be reaped. *)
  Machine.run m (Duration.milliseconds 50);
  check_bool "snapshot file exists" true
    (Aurora_vfs.Memfs.lookup_opt k.Kernel.fs Kvstore.snapshot_path <> None);
  let digest_before = Kvstore.region_digest k p cfg in
  let ops_before = Kvstore.ops_done p in
  Syscall.exit_process k p 137;
  Kernel.remove_proc k p.Process.pid;
  Aurora_vfs.Memfs.crash k.Kernel.fs;
  let p' = Kvstore.spawn k ~recover:true cfg in
  ignore (Scheduler.step_all k);
  check_bool "ops recovered via snapshot+wal" true
    (let r = Kvstore.ops_done p' in
     r <= ops_before && r > ops_before - 64);
  check_bool "region identical" true
    (Int64.equal digest_before (Kvstore.region_digest k p' cfg))

let test_kv_aurora_mode_recovery () =
  (* The Aurora port: ntflush log + SLS restore + repair replay. *)
  let m = Machine.create () in
  Machine.enable_sls_calls m;
  let k = m.Machine.kernel in
  let container = Kernel.new_container k ~name:"redis" in
  let cfg =
    { (Kvstore.default_config ~mode:Kvstore.Aurora ~nkeys:1024 ()) with
      Kvstore.ops_per_step = 8 }
  in
  let p = Kvstore.spawn k ~container:container.Container.cid cfg in
  let g = Machine.persist m (`Container container.Container.cid) in
  run_kv_ops m p ~until_ops:200;
  (* Checkpoint covers ops < 200... *)
  let b = Machine.checkpoint_now m g () in
  Api.sls_log_truncate m g;
  ignore b;
  (* ...then more ops arrive, each ntflushed. *)
  run_kv_ops m p ~until_ops:280;
  (* Wait until the device queue is empty so every micro-generation is
     durable (the app keeps serving meanwhile), then capture the
     pre-crash state. *)
  Machine.drain_storage m;
  let digest_before = Kvstore.region_digest k p cfg in
  let ops_before = Kvstore.ops_done p in
  Machine.crash m;
  let m' = Machine.recover m in
  Machine.enable_sls_calls m';
  let g' = Machine.persist m' (`Container container.Container.cid) in
  let pids, _ = Machine.restore_group m' g' () in
  let p' = Kernel.proc_exn m'.Machine.kernel (List.hd pids) in
  (* The restored image is at the checkpoint; repair replays the log
     tail. *)
  Kvstore.repair_after_restore p';
  ignore (Scheduler.step_all m'.Machine.kernel);
  check_bool "ops repaired to the last logged mutation" true
    (let r = Kvstore.ops_done p' in
     r <= ops_before && r > ops_before - 64);
  check_bool "region identical after sls recovery" true
    (Int64.equal digest_before (Kvstore.region_digest m'.Machine.kernel p' cfg))

let test_kv_server_roundtrip () =
  let m = Machine.create () in
  let k = m.Machine.kernel in
  let cfg = Kvstore.default_config ~nkeys:512 () in
  let _server, client, fd = Kvstore.spawn_server_pair k cfg in
  Kvstore.client_request k client ~fd ~opnum:42;
  ignore (Scheduler.run_until_idle k);
  match Kvstore.client_reply k client ~fd with
  | Some reply -> check_int "8-byte reply" 8 (String.length reply)
  | None -> Alcotest.fail "no reply from kv server"

(* ------------------------------------------------------------------ *)
(* Serverless                                                          *)
(* ------------------------------------------------------------------ *)

let test_serverless_invoke () =
  let m = Machine.create () in
  let k = m.Machine.kernel in
  let inst = Serverless.spawn k (Serverless.default_config ()) in
  ignore (Scheduler.run_until_idle k);
  check_bool "initialized" true (Serverless.initialized inst.Serverless.func);
  Serverless.invoke k inst ~id:1;
  Serverless.invoke k inst ~id:2;
  ignore (Scheduler.run_until_idle k);
  check_int "two invocations" 2 (Serverless.invocations inst.Serverless.func);
  check_bool "reply arrived" true (Serverless.reply k inst <> None)

let test_serverless_warm_start_clone () =
  let m = Machine.create () in
  let k = m.Machine.kernel in
  let container = Kernel.new_container k ~name:"fn" in
  let inst =
    Serverless.spawn k ~container:container.Container.cid
      (Serverless.default_config ())
  in
  ignore (Scheduler.run_until_idle k);
  let g = Machine.persist m (`Container container.Container.cid) in
  ignore (Machine.checkpoint_now m g ());
  (* Scale out: clone three instances from the image. *)
  let clones =
    List.init 3 (fun _ ->
        let pids, _ = Machine.clone_group m g () in
        List.hd pids)
  in
  List.iter
    (fun pid ->
      match Serverless.wire_restored k ~func_pid:pid with
      | None -> Alcotest.fail "clone vanished"
      | Some clone ->
        Serverless.invoke k clone ~id:7;
        ignore (Scheduler.run_until_idle k);
        check_bool
          (Printf.sprintf "clone %d handled an invocation" pid)
          true
          (Serverless.invocations clone.Serverless.func
           > Serverless.invocations inst.Serverless.func - 1))
    clones;
  (* Dedup: a second, different function checkpoints into the same
     store; its runtime pages are identical to the first function's
     and must dedup away. *)
  let container2 = Kernel.new_container k ~name:"fn2" in
  let inst2 =
    Serverless.spawn k ~container:container2.Container.cid
      (Serverless.default_config ~func_id:1 ())
  in
  ignore inst2;
  ignore (Scheduler.run_until_idle k);
  let g2 = Machine.persist m (`Container container2.Container.cid) in
  let hits_before =
    (Aurora_objstore.Store.stats m.Machine.disk_store).Aurora_objstore.Store.dedup_hits
  in
  ignore (Machine.checkpoint_now m g2 ());
  let hits_after =
    (Aurora_objstore.Store.stats m.Machine.disk_store).Aurora_objstore.Store.dedup_hits
  in
  let runtime_pages = (Serverless.default_config ()).Serverless.runtime_pages in
  check_bool "runtime pages deduplicated across functions" true
    (hits_after - hits_before >= runtime_pages)

(* ------------------------------------------------------------------ *)
(* Record/replay                                                       *)
(* ------------------------------------------------------------------ *)

let test_recreplay_reproduces_state () =
  let m = Machine.create () in
  let k = m.Machine.kernel in
  let container = Kernel.new_container k ~name:"svc" in
  let cfg = Kvstore.default_config ~nkeys:512 () in
  let server =
    Kernel.spawn k ~container:container.Container.cid ~name:"kv-server"
      ~program:"aurora/kv-server" ()
  in
  let client = Kernel.spawn k ~name:"cli" ~program:"aurora/kv-client" () in
  let sfd, cfd = Syscall.socketpair k server in
  let c_ofd = Option.get (Aurora_posix.Fd.get server.Process.fdtable cfd) in
  c_ofd.Aurora_posix.Fd.refcount <- c_ofd.Aurora_posix.Fd.refcount + 1;
  let client_fd = Aurora_posix.Fd.install client.Process.fdtable c_ofd in
  ignore (Aurora_posix.Fd.release server.Process.fdtable cfd);
  Kvstore.spawn_server k cfg ~fd:sfd server;
  (* The server replies cross the group boundary; disable external
     consistency on its socket so replay comparisons see results
     immediately. *)
  Api.sls_fdctl server ~fd:sfd ~ext_consistency:false;
  let g = Machine.persist m (`Container container.Container.cid) in
  let deliver opnum_s =
    Kvstore.client_request k client ~fd:client_fd ~opnum:(int_of_string opnum_s);
    ignore (Scheduler.run_until_idle k);
    ignore (Kvstore.client_reply k client ~fd:client_fd)
  in
  (* Checkpoint the quiescent server, then feed recorded inputs. *)
  ignore (Scheduler.run_until_idle k);
  ignore (Machine.checkpoint_now m g ());
  (* A checkpoint makes the journal's older inputs redundant. *)
  Api.sls_log_truncate m g;
  (* Journal each input durably before delivering it. *)
  List.iter
    (fun i ->
      Api.sls_barrier_until m (Api.sls_ntflush m g (string_of_int i));
      deliver (string_of_int i))
    [ 3; 14; 15; 92; 65 ];
  check_int "five records" 5 (List.length (Api.sls_log_read m g));
  let digest_before = Kvstore.region_digest k server cfg in
  let ops_before = Kvstore.ops_done server in
  (* Roll back and replay: state must reproduce exactly. *)
  let journal = Api.sls_log_read m g in
  ignore (Api.sls_rollback m g);
  List.iter deliver journal;
  check_int "replayed all" 5 (List.length journal);
  let server' = Kernel.proc_exn k server.Process.pid in
  check_int "op count reproduced" ops_before (Kvstore.ops_done server');
  check_bool "state bit-identical" true
    (Int64.equal digest_before (Kvstore.region_digest k server' cfg))

let () =
  Alcotest.run "apps"
    [
      ( "workload",
        [
          Alcotest.test_case "pure" `Quick test_workload_pure;
          Alcotest.test_case "bounds and mix" `Quick test_workload_bounds_and_mix;
          Alcotest.test_case "page mapping" `Quick test_workload_page_mapping;
        ] );
      ( "kvstore",
        [
          Alcotest.test_case "ephemeral run" `Quick test_kv_ephemeral_runs;
          Alcotest.test_case "wal crash recovery equality" `Quick
            test_kv_wal_crash_recovery_equality;
          Alcotest.test_case "fork-snapshot cycle" `Quick test_kv_fork_snapshot_cycle;
          Alcotest.test_case "aurora-port recovery" `Quick test_kv_aurora_mode_recovery;
          Alcotest.test_case "served requests" `Quick test_kv_server_roundtrip;
        ] );
      ( "serverless",
        [
          Alcotest.test_case "init + invoke" `Quick test_serverless_invoke;
          Alcotest.test_case "warm-start clones" `Quick test_serverless_warm_start_clone;
        ] );
      ( "recreplay",
        [
          Alcotest.test_case "rollback + replay reproduces state" `Quick
            test_recreplay_reproduces_state;
        ] );
    ]
