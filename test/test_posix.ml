(* Tests for the POSIX object layer: FIFOs, pipes, Unix sockets,
   shared memory, message queues, semaphores, kqueues, the TCP
   netstack, fd tables, and the object registry.
   Every object class gets a serialize -> deserialize roundtrip test:
   that roundtrip IS the checkpoint path. *)

open Aurora_simtime
open Aurora_vm
open Aurora_posix

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Fifo                                                                *)
(* ------------------------------------------------------------------ *)

let test_fifo_order () =
  let f = Fifo.create ~capacity:10 in
  check_int "push all" 3 (Fifo.push f "abc");
  check_int "push more" 3 (Fifo.push f "def");
  check_str "fifo order" "abcd" (Fifo.pop f ~max:4);
  check_str "rest" "ef" (Fifo.pop f ~max:100);
  check_bool "empty" true (Fifo.is_empty f)

let test_fifo_capacity () =
  let f = Fifo.create ~capacity:4 in
  check_int "partial accept" 4 (Fifo.push f "abcdef");
  check_int "full" 0 (Fifo.push f "x");
  check_str "kept prefix" "abcd" (Fifo.pop f ~max:10)

let test_fifo_peek () =
  let f = Fifo.create ~capacity:100 in
  ignore (Fifo.push f "hello ");
  ignore (Fifo.push f "world");
  ignore (Fifo.pop f ~max:3);
  check_str "peek after partial pop" "lo world" (Fifo.peek_all f);
  check_int "length consistent" 8 (Fifo.length f)

let prop_fifo_preserves_bytes =
  QCheck.Test.make ~name:"fifo preserves byte stream"
    QCheck.(list_of_size Gen.(int_range 1 20) (string_of_size Gen.(int_range 0 50)))
    (fun chunks ->
      let f = Fifo.create ~capacity:2000 in
      let accepted = Buffer.create 64 in
      List.iter
        (fun c ->
          let n = Fifo.push f c in
          Buffer.add_string accepted (String.sub c 0 n))
        chunks;
      let out = Buffer.create 64 in
      let rec drain () =
        let s = Fifo.pop f ~max:7 in
        if s <> "" then begin
          Buffer.add_string out s;
          drain ()
        end
      in
      drain ();
      String.equal (Buffer.contents accepted) (Buffer.contents out))

let test_fifo_serialize () =
  let f = Fifo.create ~capacity:64 in
  ignore (Fifo.push f "in flight data");
  ignore (Fifo.pop f ~max:3);
  let w = Serial.writer () in
  Fifo.serialize f w;
  let g = Fifo.deserialize (Serial.reader (Serial.contents w)) in
  check_str "contents preserved" "flight data" (Fifo.peek_all g);
  check_int "capacity preserved" 64 (Fifo.capacity g)

(* ------------------------------------------------------------------ *)
(* Pipe                                                                *)
(* ------------------------------------------------------------------ *)

let test_pipe_basic () =
  let p = Pipe.create ~oid:1 () in
  (match Pipe.write p "hello" with
   | `Written 5 -> ()
   | _ -> Alcotest.fail "write failed");
  (match Pipe.read p ~max:3 with
   | `Data s -> check_str "read" "hel" s
   | _ -> Alcotest.fail "read failed");
  (match Pipe.read p ~max:10 with
   | `Data s -> check_str "rest" "lo" s
   | _ -> Alcotest.fail "read2 failed");
  check_bool "would block when empty" true (Pipe.read p ~max:1 = `Would_block)

let test_pipe_eof_and_epipe () =
  let p = Pipe.create ~oid:1 () in
  ignore (Pipe.write p "tail");
  Pipe.close_write p;
  (match Pipe.read p ~max:10 with
   | `Data s -> check_str "drain before eof" "tail" s
   | _ -> Alcotest.fail "drain failed");
  check_bool "eof" true (Pipe.read p ~max:1 = `Eof);
  let q = Pipe.create ~oid:2 () in
  Pipe.close_read q;
  check_bool "broken pipe" true (Pipe.write q "x" = `Broken)

let test_pipe_full () =
  let p = Pipe.create ~oid:1 ~capacity:4 () in
  (match Pipe.write p "abcdef" with
   | `Written 4 -> ()
   | _ -> Alcotest.fail "partial write expected");
  check_bool "full blocks" true (Pipe.write p "x" = `Would_block)

let test_pipe_serialize_roundtrip () =
  let p = Pipe.create ~oid:7 () in
  ignore (Pipe.write p "buffered bytes survive checkpoint");
  Pipe.close_write p;
  let w = Serial.writer () in
  Pipe.serialize p w;
  let q = Pipe.deserialize (Serial.reader (Serial.contents w)) in
  check_int "oid" 7 (Pipe.oid q);
  check_bool "write end closed" false (Pipe.write_open q);
  (match Pipe.read q ~max:100 with
   | `Data s -> check_str "buffer restored" "buffered bytes survive checkpoint" s
   | _ -> Alcotest.fail "restored read failed");
  check_bool "eof after drain" true (Pipe.read q ~max:1 = `Eof)

(* ------------------------------------------------------------------ *)
(* Unix sockets                                                        *)
(* ------------------------------------------------------------------ *)

let with_pair f =
  let a, b = Unixsock.socketpair ~oid_a:10 ~oid_b:11 in
  let table = Hashtbl.create 4 in
  Hashtbl.replace table 10 a;
  Hashtbl.replace table 11 b;
  f a b (Hashtbl.find_opt table)

let test_usock_pair_transfer () =
  with_pair (fun a b lookup ->
      (match Unixsock.send a ~lookup "ping" with
       | `Sent 4 -> ()
       | _ -> Alcotest.fail "send failed");
      (match Unixsock.recv b ~max:10 with
       | `Data s -> check_str "received" "ping" s
       | _ -> Alcotest.fail "recv failed");
      check_bool "empty blocks" true (Unixsock.recv b ~max:1 = `Would_block))

let test_usock_close_eof () =
  with_pair (fun a b lookup ->
      ignore (Unixsock.send a ~lookup "last");
      Unixsock.close a ~lookup;
      (match Unixsock.recv b ~max:10 with
       | `Data s -> check_str "drain" "last" s
       | _ -> Alcotest.fail "drain failed");
      check_bool "eof after peer close" true (Unixsock.recv b ~max:1 = `Eof);
      check_bool "send to closed resets" true (Unixsock.send b ~lookup "x" = `Reset))

let test_usock_listen_accept () =
  let table = Hashtbl.create 4 in
  let lookup oid = Hashtbl.find_opt table oid in
  let server = Unixsock.create ~oid:1 () in
  Hashtbl.replace table 1 server;
  Unixsock.listen server ~name:"/tmp/srv.sock" ~backlog:2;
  let client = Unixsock.create ~oid:2 () in
  Hashtbl.replace table 2 client;
  (match Unixsock.connect client ~listener:server ~peer_oid:3 with
   | `Connected server_end ->
     Hashtbl.replace table 3 server_end;
     (match Unixsock.accept server with
      | `Endpoint oid -> check_int "accepted endpoint" 3 oid
      | `Would_block -> Alcotest.fail "accept should succeed");
     ignore (Unixsock.send client ~lookup "hello server");
     (match Unixsock.recv server_end ~max:100 with
      | `Data s -> check_str "server got it" "hello server" s
      | _ -> Alcotest.fail "server recv failed")
   | `Refused -> Alcotest.fail "connect refused")

let test_usock_backlog_refuses () =
  let server = Unixsock.create ~oid:1 () in
  Unixsock.listen server ~name:"s" ~backlog:1;
  let c1 = Unixsock.create ~oid:2 () in
  let c2 = Unixsock.create ~oid:3 () in
  (match Unixsock.connect c1 ~listener:server ~peer_oid:4 with
   | `Connected _ -> ()
   | `Refused -> Alcotest.fail "first connect should succeed");
  check_bool "backlog full" true
    (match Unixsock.connect c2 ~listener:server ~peer_oid:5 with
     | `Refused -> true
     | `Connected _ -> false)

let test_usock_serialize_with_inflight () =
  (* The CRIU pain point: a socket checkpointed with in-flight data. *)
  with_pair (fun a b lookup ->
      ignore (Unixsock.send a ~lookup "in flight");
      let w = Serial.writer () in
      Unixsock.serialize b w;
      let b' = Unixsock.deserialize (Serial.reader (Serial.contents w)) in
      check_int "oid preserved" 11 (Unixsock.oid b');
      (match Unixsock.state b' with
       | Unixsock.Connected { peer } -> check_int "peer oid" 10 peer
       | _ -> Alcotest.fail "state lost");
      match Unixsock.recv b' ~max:100 with
      | `Data s -> check_str "in-flight data restored" "in flight" s
      | _ -> Alcotest.fail "restored recv failed")

(* ------------------------------------------------------------------ *)
(* Shm / Msgq / Semaphore / Kqueue                                     *)
(* ------------------------------------------------------------------ *)

let test_shm_attach_serialize () =
  let pool = Frame.create_pool () in
  let s = Shm.create ~oid:5 ~pool ~flavor:Shm.Posix_shm ~name:"/shm0" ~npages:8 in
  Shm.attach s;
  Shm.attach s;
  check_int "attach count" 2 (Shm.attach_count s);
  let w = Serial.writer () in
  Shm.serialize s w;
  let restored_pool = Frame.create_pool () in
  let restore_obj _oid ~npages:_ = Vmobject.create ~pool:restored_pool Vmobject.Anonymous in
  let s' = Shm.deserialize (Serial.reader (Serial.contents w)) ~restore_obj in
  check_str "name" "/shm0" (Shm.name s');
  check_int "npages" 8 (Shm.npages s');
  check_int "attach count restored" 2 (Shm.attach_count s')

let test_msgq_selective_recv () =
  let q = Msgq.create ~oid:1 ~key:"q1" () in
  check_bool "send a" true (Msgq.send q ~mtype:1 "a" = `Ok);
  check_bool "send b" true (Msgq.send q ~mtype:2 "b" = `Ok);
  check_bool "send c" true (Msgq.send q ~mtype:1 "c" = `Ok);
  (match Msgq.recv q ~mtype:2 () with
   | `Msg (2, "b") -> ()
   | _ -> Alcotest.fail "selective recv failed");
  (match Msgq.recv q () with
   | `Msg (1, "a") -> ()
   | _ -> Alcotest.fail "fifo recv failed");
  check_int "one left" 1 (Msgq.message_count q)

let test_msgq_limit_and_serialize () =
  let q = Msgq.create ~oid:1 ~max_bytes:8 ~key:"q" () in
  check_bool "fits" true (Msgq.send q ~mtype:1 "12345678" = `Ok);
  check_bool "overflows" true (Msgq.send q ~mtype:1 "x" = `Would_block);
  let w = Serial.writer () in
  Msgq.serialize q w;
  let q' = Msgq.deserialize (Serial.reader (Serial.contents w)) in
  check_int "bytes restored" 8 (Msgq.bytes_used q');
  match Msgq.recv q' () with
  | `Msg (1, "12345678") -> ()
  | _ -> Alcotest.fail "restored message wrong"

let test_semaphore () =
  let s = Semaphore.create ~oid:1 ~value:1 ~name:"/sem" () in
  check_bool "first wait ok" true (Semaphore.try_wait s = `Ok);
  check_bool "second blocks" true (Semaphore.try_wait s = `Would_block);
  Semaphore.post s;
  check_bool "after post" true (Semaphore.try_wait s = `Ok);
  let w = Serial.writer () in
  Semaphore.post s;
  Semaphore.post s;
  Semaphore.serialize s w;
  let s' = Semaphore.deserialize (Serial.reader (Serial.contents w)) in
  check_int "value restored" 2 (Semaphore.value s')

let test_kqueue_coalesce_and_roundtrip () =
  let k = Kqueue.create ~oid:1 () in
  Kqueue.register k ~ident:3 Kqueue.Evt_read;
  Kqueue.register k ~ident:4 Kqueue.Evt_write;
  Kqueue.trigger k ~ident:3 Kqueue.Evt_read;
  Kqueue.trigger k ~ident:3 Kqueue.Evt_read; (* coalesces *)
  Kqueue.trigger k ~ident:9 Kqueue.Evt_read; (* unregistered: dropped *)
  check_int "pending" 1 (Kqueue.pending_count k);
  let w = Serial.writer () in
  Kqueue.serialize k w;
  let k' = Kqueue.deserialize (Serial.reader (Serial.contents w)) in
  check_int "registrations restored" 2 (List.length (Kqueue.registered k'));
  (match Kqueue.harvest k' ~max:10 with
   | [ (3, Kqueue.Evt_read) ] -> ()
   | _ -> Alcotest.fail "pending event lost");
  check_int "drained" 0 (Kqueue.pending_count k')

(* ------------------------------------------------------------------ *)
(* Netstack                                                            *)
(* ------------------------------------------------------------------ *)

let test_netstack_connect () =
  let ns = Netstack.create () in
  let table = Hashtbl.create 4 in
  let lookup oid = Hashtbl.find_opt table oid in
  let server = Unixsock.create ~oid:1 () in
  Hashtbl.replace table 1 server;
  Netstack.listen ns server ~port:6379 ~backlog:8;
  check_bool "listener registered" true (Netstack.listener_on ns ~port:6379 = Some 1);
  let client = Unixsock.create ~oid:2 () in
  Hashtbl.replace table 2 client;
  (match Netstack.connect ns ~src:client ~port:6379 ~peer_oid:3 ~lookup with
   | `Connected server_end ->
     Hashtbl.replace table 3 server_end;
     ignore (Unixsock.send client ~lookup "GET k");
     (match Unixsock.recv server_end ~max:100 with
      | `Data s -> check_str "request arrived" "GET k" s
      | _ -> Alcotest.fail "tcp recv failed")
   | `Refused -> Alcotest.fail "tcp connect refused");
  check_bool "unknown port refused" true
    (match
       Netstack.connect ns ~src:(Unixsock.create ~oid:9 ()) ~port:1 ~peer_oid:10 ~lookup
     with
     | `Refused -> true
     | `Connected _ -> false)

let test_netstack_port_conflict_and_rebind () =
  let ns = Netstack.create () in
  let s1 = Unixsock.create ~oid:1 () in
  Netstack.listen ns s1 ~port:80 ~backlog:1;
  check_bool "conflict rejected" true
    (try
       Netstack.listen ns (Unixsock.create ~oid:2 ()) ~port:80 ~backlog:1;
       false
     with Invalid_argument _ -> true);
  (* Serialize the port table, restore, and rebind the endpoint. *)
  let w = Serial.writer () in
  Netstack.serialize ns w;
  let ns' = Netstack.deserialize (Serial.reader (Serial.contents w)) in
  check_bool "binding restored" true (Netstack.listener_on ns' ~port:80 = Some 1);
  Netstack.release_port ns' ~port:80;
  Netstack.rebind ns' s1;
  check_bool "rebind works" true (Netstack.listener_on ns' ~port:80 = Some 1)

(* ------------------------------------------------------------------ *)
(* Fd tables                                                           *)
(* ------------------------------------------------------------------ *)

let test_fd_lowest_free () =
  let t = Fd.create_table () in
  let o1 = Fd.make_ofd ~oid:1 (Fd.Obj 100) in
  let o2 = Fd.make_ofd ~oid:2 (Fd.Obj 101) in
  let o3 = Fd.make_ofd ~oid:3 (Fd.Obj 102) in
  check_int "fd 0" 0 (Fd.install t o1);
  check_int "fd 1" 1 (Fd.install t o2);
  ignore (Fd.release t 0);
  check_int "reuses 0" 0 (Fd.install t o3)

let test_fd_dup_shares_offset () =
  let t = Fd.create_table () in
  let ofd = Fd.make_ofd ~oid:1 (Fd.Obj 100) in
  let fd = Fd.install t ofd in
  let fd2 = Option.get (Fd.dup t fd) in
  (Option.get (Fd.get t fd)).Fd.offset <- 42;
  check_int "offset shared through dup" 42 (Option.get (Fd.get t fd2)).Fd.offset;
  check_bool "release shared" true (Fd.release t fd = `Shared);
  check_bool "release last" true
    (match Fd.release t fd2 with `Last _ -> true | _ -> false)

let test_fd_fork_shares_and_cloexec () =
  let t = Fd.create_table () in
  let keep = Fd.make_ofd ~oid:1 (Fd.Obj 100) in
  let reaped = Fd.make_ofd ~oid:2 (Fd.Obj 101) in
  reaped.Fd.flags.Fd.cloexec <- true;
  let fd_keep = Fd.install t keep in
  let _fd_reaped = Fd.install t reaped in
  let child = Fd.fork_table t in
  check_bool "cloexec dropped" true (List.length (Fd.descriptors child) = 1);
  (Option.get (Fd.get child fd_keep)).Fd.offset <- 9;
  check_int "ofd shared across fork" 9 (Option.get (Fd.get t fd_keep)).Fd.offset

let test_fd_table_serialize_preserves_sharing () =
  let open Aurora_vfs in
  let t = Fd.create_table () in
  let v = Vnode.create Vnode.Reg in
  let file = Fd.make_ofd ~oid:1 (Fd.Vnode_file { vnode = v; append = true }) in
  file.Fd.offset <- 1234;
  let fd0 = Fd.install t file in
  let fd1 = Option.get (Fd.dup t fd0) in
  let pipe_end = Fd.make_ofd ~oid:2 ~role:`Pipe_read (Fd.Obj 50) in
  let _fd2 = Fd.install t pipe_end in
  let w = Serial.writer () in
  Fd.serialize_table t ~vid_of_vnode:(fun vn -> vn.Vnode.vid) w;
  let shared = Hashtbl.create 4 in
  let t' =
    Fd.deserialize_table
      (Serial.reader (Serial.contents w))
      ~vnode_of_vid:(fun _ -> v)
      ~shared
  in
  check_int "three descriptors" 3 (List.length (Fd.descriptors t'));
  let a = Option.get (Fd.get t' fd0) and b = Option.get (Fd.get t' fd1) in
  check_bool "dup sharing preserved" true (a == b);
  check_int "offset preserved" 1234 a.Fd.offset;
  check_bool "ext consistency default on" true a.Fd.flags.Fd.ext_consistency;
  (match (Option.get (Fd.get t' 2)).Fd.role with
   | `Pipe_read -> ()
   | _ -> Alcotest.fail "role lost");
  check_int "shared table carries both ofds" 2 (Hashtbl.length shared)

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_register_find () =
  let reg = Registry.create () in
  let oid = Registry.fresh_oid reg in
  let p = Pipe.create ~oid () in
  Registry.register reg (Registry.Kpipe p);
  check_bool "found as pipe" true (Registry.pipe reg oid <> None);
  check_bool "not a sem" true (Registry.sem reg oid = None);
  check_bool "duplicate rejected" true
    (try
       Registry.register reg (Registry.Kpipe p);
       false
     with Invalid_argument _ -> true);
  Registry.remove reg oid;
  check_int "removed" 0 (Registry.count reg)

let test_registry_stream_accessor () =
  let reg = Registry.create () in
  let u = Unixsock.create ~oid:(Registry.fresh_oid reg) () in
  let t = Unixsock.create ~oid:(Registry.fresh_oid reg) () in
  Registry.register reg (Registry.Kusock u);
  Registry.register reg (Registry.Ktcp t);
  check_bool "usock via stream" true (Registry.stream reg (Unixsock.oid u) <> None);
  check_bool "tcp via stream" true (Registry.stream reg (Unixsock.oid t) <> None);
  check_bool "tcp not a usock" true (Registry.usock reg (Unixsock.oid t) = None)

let test_registry_fold_deterministic () =
  let reg = Registry.create () in
  (* Register out of order; fold must visit by increasing oid. *)
  let s9 = Semaphore.create ~oid:9 ~name:"a" () in
  let s3 = Semaphore.create ~oid:3 ~name:"b" () in
  Registry.register reg (Registry.Ksem s9);
  Registry.register reg (Registry.Ksem s3);
  let order = Registry.fold reg ~init:[] ~f:(fun acc k -> Registry.kobj_oid k :: acc) in
  Alcotest.(check (list int)) "ascending" [ 9; 3 ] order;
  (* fresh_oid never collides with reserved ones *)
  check_bool "oid above reserved" true (Registry.fresh_oid reg > 9)

let test_registry_kobj_roundtrip () =
  let pool = Frame.create_pool () in
  let objs =
    [
      Registry.Kpipe (Pipe.create ~oid:1 ());
      Registry.Kusock (fst (Unixsock.socketpair ~oid_a:2 ~oid_b:3));
      Registry.Ktcp (Unixsock.create ~oid:4 ());
      Registry.Kshm (Shm.create ~oid:5 ~pool ~flavor:Shm.Sysv_shm ~name:"k" ~npages:2);
      Registry.Kmsgq (Msgq.create ~oid:6 ~key:"q" ());
      Registry.Ksem (Semaphore.create ~oid:7 ~name:"s" ());
      Registry.Kkq (Kqueue.create ~oid:8 ());
    ]
  in
  let restore_obj _ ~npages:_ = Vmobject.create ~pool Vmobject.Anonymous in
  List.iter
    (fun kobj ->
      let w = Serial.writer () in
      Registry.serialize_kobj kobj w;
      let kobj' =
        Registry.deserialize_kobj (Serial.reader (Serial.contents w)) ~restore_obj
      in
      check_int
        (Printf.sprintf "roundtrip oid for %s" (Registry.kobj_class kobj))
        (Registry.kobj_oid kobj) (Registry.kobj_oid kobj');
      check_str "class preserved" (Registry.kobj_class kobj) (Registry.kobj_class kobj'))
    objs

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "posix"
    [
      ( "fifo",
        [
          Alcotest.test_case "fifo order" `Quick test_fifo_order;
          Alcotest.test_case "capacity" `Quick test_fifo_capacity;
          Alcotest.test_case "peek" `Quick test_fifo_peek;
          Alcotest.test_case "serialize" `Quick test_fifo_serialize;
          qt prop_fifo_preserves_bytes;
        ] );
      ( "pipe",
        [
          Alcotest.test_case "read/write" `Quick test_pipe_basic;
          Alcotest.test_case "eof and epipe" `Quick test_pipe_eof_and_epipe;
          Alcotest.test_case "full pipe blocks" `Quick test_pipe_full;
          Alcotest.test_case "checkpoint roundtrip" `Quick test_pipe_serialize_roundtrip;
        ] );
      ( "unixsock",
        [
          Alcotest.test_case "socketpair transfer" `Quick test_usock_pair_transfer;
          Alcotest.test_case "close gives eof/reset" `Quick test_usock_close_eof;
          Alcotest.test_case "listen/accept" `Quick test_usock_listen_accept;
          Alcotest.test_case "backlog refusal" `Quick test_usock_backlog_refuses;
          Alcotest.test_case "checkpoint with in-flight data" `Quick
            test_usock_serialize_with_inflight;
        ] );
      ( "ipc-objects",
        [
          Alcotest.test_case "shm attach + roundtrip" `Quick test_shm_attach_serialize;
          Alcotest.test_case "msgq selective recv" `Quick test_msgq_selective_recv;
          Alcotest.test_case "msgq limits + roundtrip" `Quick test_msgq_limit_and_serialize;
          Alcotest.test_case "semaphore" `Quick test_semaphore;
          Alcotest.test_case "kqueue coalesce + roundtrip" `Quick
            test_kqueue_coalesce_and_roundtrip;
        ] );
      ( "netstack",
        [
          Alcotest.test_case "listen/connect/accept" `Quick test_netstack_connect;
          Alcotest.test_case "port conflicts + rebind" `Quick
            test_netstack_port_conflict_and_rebind;
        ] );
      ( "fd",
        [
          Alcotest.test_case "lowest free descriptor" `Quick test_fd_lowest_free;
          Alcotest.test_case "dup shares description" `Quick test_fd_dup_shares_offset;
          Alcotest.test_case "fork shares, cloexec drops" `Quick
            test_fd_fork_shares_and_cloexec;
          Alcotest.test_case "serialize preserves sharing" `Quick
            test_fd_table_serialize_preserves_sharing;
        ] );
      ( "registry",
        [
          Alcotest.test_case "register/find/remove" `Quick test_registry_register_find;
          Alcotest.test_case "stream accessor" `Quick test_registry_stream_accessor;
          Alcotest.test_case "fold deterministic" `Quick test_registry_fold_deterministic;
          Alcotest.test_case "all classes roundtrip" `Quick test_registry_kobj_roundtrip;
        ] );
    ]
