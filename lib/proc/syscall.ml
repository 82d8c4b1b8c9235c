open Aurora_device
open Aurora_vm
open Aurora_posix
open Aurora_vfs

exception Sys_error of string

let err fmt = Format.kasprintf (fun s -> raise (Sys_error s)) fmt
let trap (k : Kernel.t) = Kernel.charge k Costmodel.syscall_entry

let ofd_exn (p : Process.t) fd =
  match Fd.get p.Process.fdtable fd with
  | Some ofd -> ofd
  | None -> err "pid %d: bad file descriptor %d" p.Process.pid fd

(* --- files --------------------------------------------------------- *)

let open_file k (p : Process.t) ?(create = false) ?(append = false) path =
  trap k;
  let fs = k.Kernel.fs in
  let vnode =
    match Memfs.lookup_opt fs path with
    | Some v -> v
    | None ->
      if create then Memfs.create_file fs path
      else err "open: no such file %s" path
  in
  if vnode.Vnode.vtype <> Vnode.Reg then err "open: %s is a directory" path;
  Memfs.open_vnode fs vnode;
  let ofd =
    Fd.make_ofd ~oid:(Registry.fresh_oid k.Kernel.registry)
      (Fd.Vnode_file { vnode; append })
  in
  if append then ofd.Fd.offset <- vnode.Vnode.size;
  Fd.install p.Process.fdtable ofd

let read k (p : Process.t) fd ~len =
  trap k;
  if len < 0 then err "read: negative length";
  let ofd = ofd_exn p fd in
  match ofd.Fd.kind with
  | Fd.Vnode_file { vnode; _ } ->
    if ofd.Fd.offset >= vnode.Vnode.size then `Eof
    else begin
      let data = Vnode.read vnode ~off:ofd.Fd.offset ~len in
      ofd.Fd.offset <- ofd.Fd.offset + Bytes.length data;
      `Data (Bytes.to_string data)
    end
  | Fd.Obj oid -> (
    match Registry.find k.Kernel.registry oid with
    | Some (Registry.Kpipe pi) -> (
      if ofd.Fd.role <> `Pipe_read then err "read on pipe write end";
      match Pipe.read pi ~max:len with
      | `Data s -> `Data s
      | `Would_block -> `Would_block
      | `Eof -> `Eof)
    | Some (Registry.Kusock s) | Some (Registry.Ktcp s) -> (
      match Unixsock.recv s ~max:len with
      | `Data d -> `Data d
      | `Would_block -> `Would_block
      | `Eof -> `Eof)
    | Some _ -> err "read: object %d not readable" oid
    | None -> err "read: stale object %d" oid)

let deliver_stream k (src : Unixsock.t) (ofd : Fd.ofd) data =
  (* External-consistency interposition: the SLS may claim the bytes
     and release them only once the covering checkpoint is durable. *)
  let hook_result =
    match k.Kernel.send_hook with
    | Some hook when ofd.Fd.flags.Fd.ext_consistency -> hook ~src ~ofd ~data
    | Some _ | None -> `Deliver
  in
  match hook_result with
  | `Buffered n -> `Written n
  | `Deliver -> (
    match Unixsock.send src ~lookup:(Kernel.lookup_stream k) data with
    | `Sent n -> `Written n
    | `Would_block -> `Would_block
    | `Reset -> `Broken)

let write k (p : Process.t) fd data =
  trap k;
  let ofd = ofd_exn p fd in
  match ofd.Fd.kind with
  | Fd.Vnode_file { vnode; append } ->
    let off = if append then vnode.Vnode.size else ofd.Fd.offset in
    Vnode.write vnode ~off (Bytes.of_string data);
    ofd.Fd.offset <- off + String.length data;
    `Written (String.length data)
  | Fd.Obj oid -> (
    match Registry.find k.Kernel.registry oid with
    | Some (Registry.Kpipe pi) -> (
      if ofd.Fd.role <> `Pipe_write then err "write on pipe read end";
      match Pipe.write pi data with
      | `Written n -> `Written n
      | `Would_block -> `Would_block
      | `Broken -> `Broken)
    | Some (Registry.Kusock s) | Some (Registry.Ktcp s) -> deliver_stream k s ofd data
    | Some _ -> err "write: object %d not writable" oid
    | None -> err "write: stale object %d" oid)

let lseek k p fd pos =
  trap k;
  if pos < 0 then err "lseek: negative offset";
  let ofd = ofd_exn p fd in
  match ofd.Fd.kind with
  | Fd.Vnode_file _ -> ofd.Fd.offset <- pos
  | Fd.Obj _ -> err "lseek on non-file"

let fsync k p fd =
  trap k;
  let ofd = ofd_exn p fd in
  match ofd.Fd.kind with
  | Fd.Vnode_file { vnode; _ } -> Memfs.fsync k.Kernel.fs vnode
  | Fd.Obj _ -> err "fsync on non-file"

let file_size k p fd =
  trap k;
  match (ofd_exn p fd).Fd.kind with
  | Fd.Vnode_file { vnode; _ } -> vnode.Vnode.size
  | Fd.Obj _ -> err "file_size on non-file"

(* Dispose of the underlying object once the last description
   reference is gone. *)
let dispose k (ofd : Fd.ofd) =
  match ofd.Fd.kind with
  | Fd.Vnode_file { vnode; _ } -> Memfs.close_vnode k.Kernel.fs vnode
  | Fd.Obj oid -> (
    match Registry.find k.Kernel.registry oid with
    | Some (Registry.Kpipe pi) ->
      (match ofd.Fd.role with
       | `Pipe_read -> Pipe.close_read pi
       | `Pipe_write -> Pipe.close_write pi
       | `Plain -> ());
      if (not (Pipe.read_open pi)) && not (Pipe.write_open pi) then
        Registry.remove k.Kernel.registry oid
    | Some (Registry.Kusock s) ->
      (match Unixsock.bound_name s with
       | Some name -> Hashtbl.remove k.Kernel.unix_ns name
       | None -> ());
      Unixsock.close s ~lookup:(Kernel.lookup_stream k)
    | Some (Registry.Ktcp s) ->
      (match Unixsock.bound_name s with
       | Some name -> (
         match String.split_on_char ':' name with
         | [ "tcp"; port ] ->
           Netstack.release_port k.Kernel.netstack ~port:(int_of_string port)
         | _ -> ())
       | None -> ());
      Unixsock.close s ~lookup:(Kernel.lookup_stream k)
    | Some (Registry.Kshm _ | Registry.Kmsgq _ | Registry.Ksem _) -> ()
    | Some (Registry.Kkq _) -> Registry.remove k.Kernel.registry oid
    | None -> ())

let close k (p : Process.t) fd =
  trap k;
  match Fd.release p.Process.fdtable fd with
  | `Bad_fd -> err "close: bad file descriptor %d" fd
  | `Shared -> ()
  | `Last ofd -> dispose k ofd

let dup k (p : Process.t) fd =
  trap k;
  match Fd.dup p.Process.fdtable fd with
  | Some nfd -> nfd
  | None -> err "dup: bad file descriptor %d" fd

let mkdir k _p path =
  trap k;
  ignore (Memfs.mkdir k.Kernel.fs path)

let unlink k _p path =
  trap k;
  Memfs.unlink k.Kernel.fs path

let rename k _p ~src ~dst =
  trap k;
  Memfs.rename k.Kernel.fs ~src ~dst

(* --- pipes and sockets --------------------------------------------- *)

let pipe k (p : Process.t) =
  trap k;
  let reg = k.Kernel.registry in
  let pi = Pipe.create ~oid:(Registry.fresh_oid reg) () in
  Registry.register reg (Registry.Kpipe pi);
  let r_ofd =
    Fd.make_ofd ~oid:(Registry.fresh_oid reg) ~role:`Pipe_read (Fd.Obj (Pipe.oid pi))
  in
  let w_ofd =
    Fd.make_ofd ~oid:(Registry.fresh_oid reg) ~role:`Pipe_write (Fd.Obj (Pipe.oid pi))
  in
  let rfd = Fd.install p.Process.fdtable r_ofd in
  let wfd = Fd.install p.Process.fdtable w_ofd in
  (rfd, wfd)

let install_stream k (p : Process.t) kobj =
  let reg = k.Kernel.registry in
  Registry.register reg kobj;
  let ofd = Fd.make_ofd ~oid:(Registry.fresh_oid reg) (Fd.Obj (Registry.kobj_oid kobj)) in
  Fd.install p.Process.fdtable ofd

let socketpair k (p : Process.t) =
  trap k;
  let reg = k.Kernel.registry in
  let a, b =
    Unixsock.socketpair ~oid_a:(Registry.fresh_oid reg) ~oid_b:(Registry.fresh_oid reg)
  in
  let fd_a = install_stream k p (Registry.Kusock a) in
  let fd_b = install_stream k p (Registry.Kusock b) in
  (fd_a, fd_b)

let socket k (p : Process.t) domain =
  trap k;
  let reg = k.Kernel.registry in
  let ep = Unixsock.create ~oid:(Registry.fresh_oid reg) () in
  let kobj =
    match domain with `Unix -> Registry.Kusock ep | `Tcp -> Registry.Ktcp ep
  in
  install_stream k p kobj

let stream_ofd_exn k (p : Process.t) fd =
  let ofd = ofd_exn p fd in
  match ofd.Fd.kind with
  | Fd.Obj oid -> (
    match Registry.find k.Kernel.registry oid with
    | Some (Registry.Kusock s) -> (`Unix, s, ofd)
    | Some (Registry.Ktcp s) -> (`Tcp, s, ofd)
    | _ -> err "descriptor %d is not a socket" fd)
  | Fd.Vnode_file _ -> err "descriptor %d is not a socket" fd

let bind_listen k (p : Process.t) fd ~addr ~backlog =
  trap k;
  let domain, ep, _ = stream_ofd_exn k p fd in
  match domain with
  | `Unix ->
    if Hashtbl.mem k.Kernel.unix_ns addr then err "bind: address %s in use" addr;
    Unixsock.listen ep ~name:addr ~backlog;
    Hashtbl.replace k.Kernel.unix_ns addr (Unixsock.oid ep)
  | `Tcp -> (
    match int_of_string_opt addr with
    | Some port -> Netstack.listen k.Kernel.netstack ep ~port ~backlog
    | None -> err "bind: bad port %S" addr)

let connect k (p : Process.t) fd ~addr =
  trap k;
  let domain, ep, _ = stream_ofd_exn k p fd in
  let reg = k.Kernel.registry in
  let peer_oid = Registry.fresh_oid reg in
  let result =
    match domain with
    | `Unix -> (
      match Hashtbl.find_opt k.Kernel.unix_ns addr with
      | None -> `Refused
      | Some listener_oid -> (
        match Kernel.lookup_stream k listener_oid with
        | None -> `Refused
        | Some listener -> Unixsock.connect ep ~listener ~peer_oid))
    | `Tcp -> (
      match int_of_string_opt addr with
      | None -> err "connect: bad port %S" addr
      | Some port ->
        Netstack.connect k.Kernel.netstack ~src:ep ~port ~peer_oid
          ~lookup:(Kernel.lookup_stream k))
  in
  match result with
  | `Connected server_end ->
    (* The server-side endpoint becomes a registered object now; the
       server picks it up via accept. *)
    let kobj =
      match domain with
      | `Unix -> Registry.Kusock server_end
      | `Tcp -> Registry.Ktcp server_end
    in
    Registry.register reg kobj;
    `Ok
  | `Refused -> `Refused

let accept k (p : Process.t) fd =
  trap k;
  let domain, ep, _ = stream_ofd_exn k p fd in
  match Unixsock.accept ep with
  | `Would_block -> `Would_block
  | `Endpoint oid ->
    let ofd =
      Fd.make_ofd ~oid:(Registry.fresh_oid k.Kernel.registry) (Fd.Obj oid)
    in
    ignore domain;
    `Fd (Fd.install p.Process.fdtable ofd)

(* --- shared memory ------------------------------------------------- *)

let find_shm_by_name (k : Kernel.t) ~flavor ~name =
  Registry.fold k.Kernel.registry ~init:None ~f:(fun acc kobj ->
      match (acc, kobj) with
      | Some _, _ -> acc
      | None, Registry.Kshm s when Shm.name s = name && Shm.flavor s = flavor ->
        Some s
      | None, _ -> None)

let shm_open k _p ~flavor ~name ~npages =
  trap k;
  match find_shm_by_name k ~flavor ~name with
  | Some s ->
    if Shm.npages s <> npages && npages > 0 then
      err "shm_open: size mismatch for %s" name
    else Shm.oid s
  | None ->
    let reg = k.Kernel.registry in
    let s =
      Shm.create ~oid:(Registry.fresh_oid reg) ~pool:k.Kernel.pool ~flavor ~name ~npages
    in
    Registry.register reg (Registry.Kshm s);
    Shm.oid s

let shm_of (k : Kernel.t) oid =
  match Registry.shm k.Kernel.registry oid with
  | Some s -> s
  | None -> err "no shared memory segment %d" oid

let shm_attach k (p : Process.t) oid =
  trap k;
  let s = shm_of k oid in
  Shm.attach s;
  Vmmap.map_object p.Process.vm ~obj:(Shm.vmobject s) ~obj_offset:0
    ~npages:(Shm.npages s) ()

let shm_detach k (p : Process.t) oid entry =
  trap k;
  let s = shm_of k oid in
  Shm.detach s;
  Vmmap.unmap p.Process.vm entry

(* --- message queues / semaphores / kqueue -------------------------- *)

let msgq_open k _p ~key =
  trap k;
  let existing =
    Registry.fold k.Kernel.registry ~init:None ~f:(fun acc kobj ->
        match (acc, kobj) with
        | Some _, _ -> acc
        | None, Registry.Kmsgq q when Msgq.key q = key -> Some (Msgq.oid q)
        | None, _ -> None)
  in
  match existing with
  | Some oid -> oid
  | None ->
    let reg = k.Kernel.registry in
    let q = Msgq.create ~oid:(Registry.fresh_oid reg) ~key () in
    Registry.register reg (Registry.Kmsgq q);
    Msgq.oid q

let msgq_of (k : Kernel.t) oid =
  match Registry.msgq k.Kernel.registry oid with
  | Some q -> q
  | None -> err "no message queue %d" oid

let msgq_send k _p oid ~mtype data =
  trap k;
  Msgq.send (msgq_of k oid) ~mtype data

let msgq_recv k _p oid ?mtype () =
  trap k;
  Msgq.recv (msgq_of k oid) ?mtype ()

let sem_open k _p ~name ~value =
  trap k;
  let existing =
    Registry.fold k.Kernel.registry ~init:None ~f:(fun acc kobj ->
        match (acc, kobj) with
        | Some _, _ -> acc
        | None, Registry.Ksem s when Semaphore.name s = name -> Some (Semaphore.oid s)
        | None, _ -> None)
  in
  match existing with
  | Some oid -> oid
  | None ->
    let reg = k.Kernel.registry in
    let s = Semaphore.create ~oid:(Registry.fresh_oid reg) ~value ~name () in
    Registry.register reg (Registry.Ksem s);
    Semaphore.oid s

let sem_of (k : Kernel.t) oid =
  match Registry.sem k.Kernel.registry oid with
  | Some s -> s
  | None -> err "no semaphore %d" oid

let sem_wait k _p oid =
  trap k;
  Semaphore.try_wait (sem_of k oid)

let sem_post k _p oid =
  trap k;
  Semaphore.post (sem_of k oid)

let kqueue k (p : Process.t) =
  trap k;
  let reg = k.Kernel.registry in
  let kq = Kqueue.create ~oid:(Registry.fresh_oid reg) () in
  Registry.register reg (Registry.Kkq kq);
  let ofd = Fd.make_ofd ~oid:(Registry.fresh_oid reg) (Fd.Obj (Kqueue.oid kq)) in
  Fd.install p.Process.fdtable ofd

let kq_of k (p : Process.t) fd =
  match (ofd_exn p fd).Fd.kind with
  | Fd.Obj oid -> (
    match Registry.kq k.Kernel.registry oid with
    | Some kq -> kq
    | None -> err "descriptor %d is not a kqueue" fd)
  | Fd.Vnode_file _ -> err "descriptor %d is not a kqueue" fd

let kevent_register k p ~kq ~ident filter =
  trap k;
  Kqueue.register (kq_of k p kq) ~ident filter

let kevent_trigger k p ~kq ~ident filter =
  trap k;
  Kqueue.trigger (kq_of k p kq) ~ident filter

let kevent_poll k p ~kq ~max =
  trap k;
  Kqueue.harvest (kq_of k p kq) ~max

(* --- memory -------------------------------------------------------- *)

let mmap_anon k (p : Process.t) ~npages =
  trap k;
  Vmmap.map_anonymous p.Process.vm ~npages ()

let munmap k (p : Process.t) entry =
  trap k;
  Vmmap.unmap p.Process.vm entry

(* Plain loads/stores do not trap; costs come from faults inside
   Vmmap. *)
let mem_write _k (p : Process.t) ~vpn ~offset ~value =
  Vmmap.write p.Process.vm ~vpn ~offset ~value

let mem_load_page _k (p : Process.t) ~vpn content = Vmmap.load_page p.Process.vm ~vpn content
let mem_read _k (p : Process.t) ~vpn ~offset = Vmmap.read_value p.Process.vm ~vpn ~offset
let mem_page _k (p : Process.t) ~vpn = Vmmap.read p.Process.vm ~vpn

(* --- processes ----------------------------------------------------- *)

let fork k (p : Process.t) (calling : Thread.t) =
  trap k;
  let pid = k.Kernel.next_pid in
  k.Kernel.next_pid <- pid + 1;
  let vm = Vmmap.fork p.Process.vm in
  let child =
    Process.create ~pid ~ppid:p.Process.pid ~name:p.Process.name
      ~container:p.Process.container ~vm ~program:calling.Thread.context.Context.program
  in
  child.Process.fdtable <- Fd.fork_table p.Process.fdtable;
  child.Process.cwd <- p.Process.cwd;
  (* Duplicate the calling thread's context; fork returns 0 in the
     child, the child's pid in the parent (register 0). *)
  let child_main = Process.main_thread child in
  child_main.Thread.context.Context.pc <- calling.Thread.context.Context.pc;
  Array.blit calling.Thread.context.Context.regs 0 child_main.Thread.context.Context.regs
    0 Context.nregs;
  Context.set_reg child_main.Thread.context 0 0L;
  Context.set_reg calling.Thread.context 0 (Int64.of_int pid);
  Hashtbl.replace k.Kernel.procs pid child;
  child

let exit_process k (p : Process.t) code =
  trap k;
  if p.Process.exit_status = None then begin
    List.iter
      (fun (fd, _) ->
        match Fd.release p.Process.fdtable fd with
        | `Last ofd -> dispose k ofd
        | `Shared | `Bad_fd -> ())
      (Fd.descriptors p.Process.fdtable);
    Vmmap.destroy p.Process.vm;
    List.iter
      (fun th -> if not (Thread.is_exited th) then th.Thread.state <- Thread.Exited code)
      p.Process.threads;
    p.Process.exit_status <- Some code
  end

let waitpid k (p : Process.t) want =
  trap k;
  let candidates =
    List.filter
      (fun c ->
        c.Process.ppid = p.Process.pid
        && Process.is_zombie c
        && (want = -1 || c.Process.pid = want))
      (Kernel.processes k)
  in
  match candidates with
  | [] -> `Would_block
  | child :: _ ->
    let status = Option.get child.Process.exit_status in
    Kernel.remove_proc k child.Process.pid;
    `Reaped (child.Process.pid, status)

let sleep_until _k _p deadline = Thread.Wait_sleep_until deadline

let sls k (p : Process.t) op =
  trap k;
  match k.Kernel.sls_ops with
  | Some handler -> handler ~pid:p.Process.pid op
  | None -> err "sls: no single level store attached"
