(* Tests for the application layer: workload purity, the KV store's
   three persistence modes (including crash-recovery equality and the
   fork-snapshot path), the LSM tree's WAL/manifest machinery, the
   serverless runtime, and record/replay over rollback. *)

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
  ignore (Scheduler.run_until_idle k ());
  match Kvstore.client_reply k client ~fd with
  | Some reply -> check_int "8-byte reply" 8 (String.length reply)
  | None -> Alcotest.fail "no reply from kv server"

(* ------------------------------------------------------------------ *)
(* LSM tree                                                            *)
(* ------------------------------------------------------------------ *)

let lsm_fixture () =
  let m = Machine.create ~fs_with_disk:true () in
  let k = m.Machine.kernel in
  let p = Kernel.spawn k ~name:"db" ~program:"aurora/kv-client" () in
  (m, k, p)

let test_lsm_put_get_delete () =
  let _, k, p = lsm_fixture () in
  let t = Lsmtree.create k p ~dir:"/db" ~memtable_limit:4 Lsmtree.Wal_fsync in
  Lsmtree.put t ~key:"alpha" ~value:"1";
  Lsmtree.put t ~key:"beta" ~value:"2";
  Alcotest.(check (option string)) "get hit" (Some "1") (Lsmtree.get t ~key:"alpha");
  Alcotest.(check (option string)) "get miss" None (Lsmtree.get t ~key:"gamma");
  Lsmtree.delete t ~key:"alpha";
  Alcotest.(check (option string)) "deleted" None (Lsmtree.get t ~key:"alpha");
  Lsmtree.put t ~key:"beta" ~value:"2b";
  Alcotest.(check (option string)) "overwrite" (Some "2b") (Lsmtree.get t ~key:"beta")

let test_lsm_flush_and_levels () =
  let _, k, p = lsm_fixture () in
  let t = Lsmtree.create k p ~dir:"/db" ~memtable_limit:4 Lsmtree.Wal_fsync in
  for i = 0 to 19 do
    Lsmtree.put t ~key:(Printf.sprintf "k%03d" i) ~value:(string_of_int i)
  done;
  check_bool "tables flushed" true (Lsmtree.sstable_count t >= 4);
  (* Reads hit older levels. *)
  Alcotest.(check (option string)) "old key from sstable" (Some "0")
    (Lsmtree.get t ~key:"k000");
  check_int "twenty live entries" 20 (List.length (Lsmtree.entries t))

let test_lsm_compaction () =
  let _, k, p = lsm_fixture () in
  let t = Lsmtree.create k p ~dir:"/db" ~memtable_limit:4 Lsmtree.Wal_fsync in
  for i = 0 to 19 do
    Lsmtree.put t ~key:(Printf.sprintf "k%03d" i) ~value:(string_of_int i)
  done;
  Lsmtree.delete t ~key:"k005";
  let before = Lsmtree.entries t in
  Lsmtree.compact t;
  check_int "single table after compaction" 1 (Lsmtree.sstable_count t);
  check_bool "contents preserved" true (Lsmtree.entries t = before);
  Alcotest.(check (option string)) "tombstone applied" None (Lsmtree.get t ~key:"k005")

let test_lsm_wal_crash_recovery () =
  let _, k, p = lsm_fixture () in
  let t = Lsmtree.create k p ~dir:"/db" ~memtable_limit:100 Lsmtree.Wal_fsync in
  for i = 0 to 9 do
    Lsmtree.put t ~key:(Printf.sprintf "k%d" i) ~value:(string_of_int (i * i))
  done;
  Lsmtree.delete t ~key:"k3";
  let before = Lsmtree.entries t in
  (* Everything is in the memtable; the fsynced WAL is the only
     durable copy. *)
  check_int "nothing flushed" 0 (Lsmtree.sstable_count t);
  Aurora_vfs.Memfs.crash k.Kernel.fs;
  let t' = Lsmtree.recover k p ~dir:"/db" Lsmtree.Wal_fsync in
  check_bool "recovered equals pre-crash" true (Lsmtree.entries t' = before)

let test_lsm_flush_then_crash_recovery () =
  let _, k, p = lsm_fixture () in
  let t = Lsmtree.create k p ~dir:"/db" ~memtable_limit:4 Lsmtree.Wal_fsync in
  for i = 0 to 10 do
    Lsmtree.put t ~key:(Printf.sprintf "k%02d" i) ~value:(string_of_int i)
  done;
  let before = Lsmtree.entries t in
  Aurora_vfs.Memfs.crash k.Kernel.fs;
  let t' = Lsmtree.recover k p ~dir:"/db" Lsmtree.Wal_fsync in
  check_bool "tables + wal tail recovered" true (Lsmtree.entries t' = before)

let test_lsm_aurora_port_recovery () =
  let m = Machine.create () in
  Machine.enable_sls_calls m;
  let k = m.Machine.kernel in
  let container = Kernel.new_container k ~name:"rocks" in
  let p =
    Kernel.spawn k ~container:container.Container.cid ~name:"db"
      ~program:"aurora/kv-client" ()
  in
  let _g = Machine.persist m (`Container container.Container.cid) in
  let t = Lsmtree.create k p ~dir:"/db" ~memtable_limit:100 Lsmtree.Aurora_log in
  for i = 0 to 9 do
    Lsmtree.put t ~key:(Printf.sprintf "k%d" i) ~value:(string_of_int i)
  done;
  let before = Lsmtree.entries t in
  (* No fsync ever happened; durability came from sls_ntflush. Wait
     out the device, then rebuild from the SLS log. *)
  Machine.run m (Duration.milliseconds 2);
  let t' = Lsmtree.recover k p ~dir:"/db" Lsmtree.Aurora_log in
  check_bool "aurora log recovery equals pre-crash" true (Lsmtree.entries t' = before)

(* ------------------------------------------------------------------ *)
(* Serverless                                                          *)
(* ------------------------------------------------------------------ *)

let test_serverless_invoke () =
  let m = Machine.create () in
  let k = m.Machine.kernel in
  let inst = Serverless.spawn k (Serverless.default_config ()) in
  ignore (Scheduler.run_until_idle k ());
  check_bool "initialized" true (Serverless.initialized inst.Serverless.func);
  Serverless.invoke k inst ~id:1;
  Serverless.invoke k inst ~id:2;
  ignore (Scheduler.run_until_idle k ());
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
  ignore (Scheduler.run_until_idle k ());
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
        ignore (Scheduler.run_until_idle k ());
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
  ignore (Scheduler.run_until_idle k ());
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
    ignore (Scheduler.run_until_idle k ());
    ignore (Kvstore.client_reply k client ~fd:client_fd)
  in
  (* Checkpoint the quiescent server, then feed recorded inputs. *)
  ignore (Scheduler.run_until_idle k ());
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



let test_lsm_auto_compaction_bounds_tables () =
  let _, k, p = lsm_fixture () in
  let t =
    Lsmtree.create k p ~dir:"/db" ~memtable_limit:2 ~compaction_threshold:4
      Lsmtree.Wal_fsync
  in
  for i = 0 to 99 do
    Lsmtree.put t ~key:(Printf.sprintf "k%03d" i) ~value:(string_of_int i)
  done;
  check_bool "table count bounded by auto-compaction" true
    (Lsmtree.sstable_count t <= 5);
  check_int "all entries live" 100 (List.length (Lsmtree.entries t))

(* Model-based LSM property: random operation sequences, interleaved
   with flushes, compactions and crash/recover cycles, always agree
   with a plain map. *)
type lsm_op =
  | L_put of int * string
  | L_del of int
  | L_flush
  | L_compact
  | L_crash_recover

let lsm_op_gen =
  let open QCheck.Gen in
  frequency
    [
      (8, map2 (fun k v -> L_put (k mod 20, v))
           small_nat (string_size ~gen:(char_range 'a' 'z') (int_range 1 8)));
      (3, map (fun k -> L_del (k mod 20)) small_nat);
      (2, return L_flush);
      (1, return L_compact);
      (2, return L_crash_recover);
    ]

let pp_lsm_op = function
  | L_put (k, v) -> Printf.sprintf "put k%d=%s" k v
  | L_del k -> Printf.sprintf "del k%d" k
  | L_flush -> "flush"
  | L_compact -> "compact"
  | L_crash_recover -> "crash+recover"

let prop_lsm_matches_model =
  QCheck.Test.make ~name:"lsm agrees with a model map across crashes" ~count:40
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_lsm_op ops))
       QCheck.Gen.(list_size (int_range 1 60) lsm_op_gen))
    (fun ops ->
      let _, k, p = lsm_fixture () in
      let t = ref (Lsmtree.create k p ~dir:"/db" ~memtable_limit:5 Lsmtree.Wal_fsync) in
      let model = Hashtbl.create 16 in
      let key i = Printf.sprintf "k%02d" i in
      List.iter
        (fun op ->
          match op with
          | L_put (i, v) ->
            Hashtbl.replace model (key i) v;
            Lsmtree.put !t ~key:(key i) ~value:v
          | L_del i ->
            Hashtbl.remove model (key i);
            Lsmtree.delete !t ~key:(key i)
          | L_flush -> Lsmtree.flush_memtable !t
          | L_compact -> Lsmtree.compact !t
          | L_crash_recover ->
            Aurora_vfs.Memfs.crash k.Kernel.fs;
            t := Lsmtree.recover k p ~dir:"/db" Lsmtree.Wal_fsync)
        ops;
      let expected =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      if Lsmtree.entries !t = expected then true
      else
        QCheck.Test.fail_reportf "lsm diverged from model:@.lsm   %s@.model %s"
          (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) (Lsmtree.entries !t)))
          (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) expected)))

let qt = QCheck_alcotest.to_alcotest

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
      ( "lsmtree",
        [
          Alcotest.test_case "put/get/delete" `Quick test_lsm_put_get_delete;
          Alcotest.test_case "flush and levels" `Quick test_lsm_flush_and_levels;
          Alcotest.test_case "compaction" `Quick test_lsm_compaction;
          Alcotest.test_case "wal crash recovery" `Quick test_lsm_wal_crash_recovery;
          Alcotest.test_case "flush + wal tail recovery" `Quick
            test_lsm_flush_then_crash_recovery;
          Alcotest.test_case "aurora-port recovery" `Quick test_lsm_aurora_port_recovery;
          Alcotest.test_case "auto-compaction bounds tables" `Quick
            test_lsm_auto_compaction_bounds_tables;
          qt prop_lsm_matches_model;
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
