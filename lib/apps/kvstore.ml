open Aurora_vm
open Aurora_posix
open Aurora_proc

type mode = Ephemeral | Wal | Aurora

type config = {
  spec : Workload.spec;
  mode : mode;
  ops_limit : int;
  snapshot_every : int;
  fsync_every : int;
  ops_per_step : int;
  preload : bool;
}

let default_config ?(mode = Ephemeral) ~nkeys () =
  { spec = Workload.uniform_5050 ~nkeys; mode; ops_limit = 0; snapshot_every = 50_000;
    fsync_every = 1; ops_per_step = 32; preload = false }

let wal_path = "/kv/wal"
let snapshot_path = "/kv/dump"
let snapshot_tmp = "/kv/dump.tmp"

let npages c = Workload.pages_needed c.spec

(* Register allocation (see the .mli of Context for the model):
   r1 base vpn, r2 npages, r3 ops limit, r4 ops done, r5 mode,
   r6 wal/server fd, r7 nkeys, r8 write_pct, r9 hot params packed,
   r10 snapshot period, r11 ops since snapshot, r12 fsync period,
   r13 recover flag, r14 ops per step. r0 is the fork result. *)

let mode_tag = function Ephemeral -> 0 | Wal -> 1 | Aurora -> 2

let spec_of_ctx ctx =
  {
    Workload.nkeys = Context.reg_int ctx 7;
    write_pct = Context.reg_int ctx 8;
    hot_key_pct = Context.reg_int ctx 9 / 1000;
    hot_access_pct = Context.reg_int ctx 9 mod 1000;
  }

(* --- log records ------------------------------------------------------ *)

let wal_record ~opnum ~key ~value =
  let b = Bytes.create 24 in
  Bytes.set_int64_le b 0 (Int64.of_int opnum);
  Bytes.set_int64_le b 8 (Int64.of_int key);
  Bytes.set_int64_le b 16 value;
  Bytes.to_string b

let parse_wal_record s off =
  ( Int64.to_int (String.get_int64_le s off),
    Int64.to_int (String.get_int64_le s (off + 8)),
    String.get_int64_le s (off + 16) )

(* --- the data region -------------------------------------------------- *)

let apply_set k p ~base ~key ~value =
  Syscall.mem_write k p ~vpn:(base + Workload.page_of_key key)
    ~offset:(Workload.offset_of_key key) ~value

let apply_get k p ~base ~key =
  Syscall.mem_read k p ~vpn:(base + Workload.page_of_key key)
    ~offset:(Workload.offset_of_key key)

(* --- setup / recovery -------------------------------------------------- *)

let ensure_kv_dir k p =
  match Aurora_vfs.Memfs.lookup_opt k.Kernel.fs "/kv" with
  | Some _ -> ()
  | None -> Syscall.mkdir k p "/kv"

let load_snapshot k p ~base =
  match Aurora_vfs.Memfs.lookup_opt k.Kernel.fs snapshot_path with
  | None -> 0
  | Some _ ->
    let fd = Syscall.open_file k p snapshot_path in
    let header =
      match Syscall.read k p fd ~len:16 with
      | `Data s when String.length s = 16 -> s
      | _ -> raise (Syscall.Sys_error "kvstore: bad snapshot header")
    in
    let snap_pages = Int64.to_int (String.get_int64_le header 0) in
    let snap_ops = Int64.to_int (String.get_int64_le header 8) in
    for i = 0 to snap_pages - 1 do
      match Syscall.read k p fd ~len:4096 with
      | `Data s when String.length s = 4096 ->
        (* First 8 bytes carry the page's content identity. *)
        Syscall.mem_load_page k p ~vpn:(base + i)
          (Content.of_seed (String.get_int64_le s 0))
      | _ -> raise (Syscall.Sys_error "kvstore: truncated snapshot")
    done;
    Syscall.close k p fd;
    snap_ops

let replay_wal k p ~base ~from_op =
  match Aurora_vfs.Memfs.lookup_opt k.Kernel.fs wal_path with
  | None -> from_op
  | Some _ ->
    let fd = Syscall.open_file k p wal_path in
    let next = ref from_op in
    let rec drain () =
      match Syscall.read k p fd ~len:(24 * 256) with
      | `Data s ->
        let n = String.length s / 24 in
        for i = 0 to n - 1 do
          let opnum, key, value = parse_wal_record s (i * 24) in
          if opnum >= !next then begin
            apply_set k p ~base ~key ~value;
            next := opnum + 1
          end
        done;
        drain ()
      | `Eof | `Would_block -> ()
    in
    drain ();
    Syscall.close k p fd;
    !next

let replay_sls_log k p ~base ~from_op =
  match Syscall.sls k p Kernel.Sls_log_read with
  | Kernel.Sls_log entries ->
    List.fold_left
      (fun next entry ->
        let opnum, key, value = parse_wal_record entry 0 in
        if opnum >= next then begin
          apply_set k p ~base ~key ~value;
          opnum + 1
        end
        else next)
      from_op entries
  | Kernel.Sls_time _ -> from_op

(* --- the program ------------------------------------------------------- *)

let dump_snapshot k p ctx =
  (* The forked child: write the (COW-frozen) region to a temp file,
     fsync, atomically rename. The header records the op count so log
     replay knows where to resume. *)
  let base = Context.reg_int ctx 1 and pages = Context.reg_int ctx 2 in
  let fd = Syscall.open_file k p ~create:true snapshot_tmp in
  let header = Bytes.create 16 in
  Bytes.set_int64_le header 0 (Int64.of_int pages);
  Bytes.set_int64_le header 8 (Context.reg ctx 4);
  ignore (Syscall.write k p fd (Bytes.to_string header));
  for i = 0 to pages - 1 do
    let content = Syscall.mem_page k p ~vpn:(base + i) in
    (* Page dump format: the 8-byte content identity followed by
       padding to the page size (the full 4 KiB hits the device, which
       is what the fsync cost model needs to see). *)
    let page_bytes = Bytes.make 4096 '\000' in
    Bytes.set_int64_le page_bytes 0 (Content.to_seed content);
    ignore (Syscall.write k p fd (Bytes.to_string page_bytes))
  done;
  Syscall.fsync k p fd;
  Syscall.close k p fd;
  Syscall.rename k p ~src:snapshot_tmp ~dst:snapshot_path

let do_one_op k p ctx ~spec ~opnum =
  let base = Context.reg_int ctx 1 in
  let kind, key, value = Workload.op_of spec ~opnum in
  match kind with
  | Workload.Get -> ignore (apply_get k p ~base ~key)
  | Workload.Set | Workload.Incr | Workload.Del ->
    (* The mutation's concrete stored value; the log records it, so
       replay never recomputes (INCR is read-modify-write). *)
    let value =
      match kind with
      | Workload.Set -> value
      | Workload.Incr -> Int64.add (apply_get k p ~base ~key) 1L
      | Workload.Del -> 0L
      | Workload.Get -> assert false
    in
    apply_set k p ~base ~key ~value;
    (match Context.reg_int ctx 5 with
     | 1 ->
       (* AOF append; fsync per policy. *)
       ignore
         (Syscall.write k p (Context.reg_int ctx 6) (wal_record ~opnum ~key ~value));
       let period = max 1 (Context.reg_int ctx 12) in
       if opnum mod period = 0 then Syscall.fsync k p (Context.reg_int ctx 6)
     | 2 -> ignore (Syscall.sls k p (Kernel.Sls_ntflush (wal_record ~opnum ~key ~value)))
     | _ -> ())

let step_serve k p th =
  let ctx = th.Thread.context in
  let limit = Context.reg_int ctx 3 in
  let batch = max 1 (Context.reg_int ctx 14) in
  let start = Context.reg_int ctx 4 in
  if limit > 0 && start >= limit then Program.Exit_program 0
  else begin
    let n = if limit > 0 then min batch (limit - start) else batch in
    (* No operation writes the spec's registers: decode it once. *)
    let spec = spec_of_ctx ctx in
    for i = 0 to n - 1 do
      do_one_op k p ctx ~spec ~opnum:(start + i)
    done;
    Context.set_reg_int ctx 4 (start + n);
    Context.set_reg_int ctx 11 (Context.reg_int ctx 11 + n);
    (* Reap any finished snapshot child. The log is deliberately NOT
       truncated here: operations logged between the fork and the reap
       are only in the log, so recovery filters replay by the
       snapshot's recorded operation count instead (compaction of the
       covered prefix is elided). *)
    (match Syscall.waitpid k p (-1) with
     | `Reaped _ | `Would_block -> ());
    (* Fork-snapshot when due. *)
    let period = Context.reg_int ctx 10 in
    if Context.reg_int ctx 5 = 1 && period > 0 && Context.reg_int ctx 11 >= period
    then begin
      Context.set_reg_int ctx 11 0;
      ctx.Context.pc <- 3;
      ignore (Syscall.fork k p th)
    end;
    Program.Continue
  end

let () =
  Program.register ~name:"aurora/kvstore" (fun k p th ->
      let ctx = th.Thread.context in
      match ctx.Context.pc with
      | 0 ->
        (* Setup: data region, files, optional recovery. *)
        ensure_kv_dir k p;
        let pages = Context.reg_int ctx 2 in
        let e = Syscall.mmap_anon k p ~npages:pages in
        Context.set_reg_int ctx 1 e.Vmmap.start_vpn;
        let base = e.Vmmap.start_vpn in
        (match (Context.reg_int ctx 5, Context.reg_int ctx 13) with
         | 1, 1 ->
           let snap_ops = load_snapshot k p ~base in
           let next = replay_wal k p ~base ~from_op:snap_ops in
           Context.set_reg_int ctx 4 next
         | _, 3 ->
           (* Preload: make the whole region resident (the benchmark's
              warmed working set). *)
           for i = 0 to pages - 1 do
             Syscall.mem_write k p ~vpn:(base + i) ~offset:0
               ~value:(Int64.of_int (0xBEEF0000 + i))
           done
         | _ -> ());
        if Context.reg_int ctx 5 = 1 then
          Context.set_reg_int ctx 6
            (Syscall.open_file k p ~create:true ~append:true wal_path);
        ctx.Context.pc <- 1;
        Program.Continue
      | 1 -> step_serve k p th
      | 2 ->
        (* Snapshot child. *)
        dump_snapshot k p ctx;
        Program.Exit_program 0
      | 3 ->
        (* Fork return dispatch: the child dumps, the parent serves. *)
        if Context.reg ctx 0 = 0L then ctx.Context.pc <- 2 else ctx.Context.pc <- 1;
        Program.Continue
      | 4 ->
        (* Post-restore repair (Aurora mode): replay the ntflush log
           tail over the restored memory image. *)
        let base = Context.reg_int ctx 1 in
        let next = replay_sls_log k p ~base ~from_op:(Context.reg_int ctx 4) in
        Context.set_reg_int ctx 4 next;
        ctx.Context.pc <- 1;
        Program.Continue
      | _ -> Program.Exit_program 99)

(* The served variant: executes client-numbered operations arriving on
   a stream, replying with the value read/written. *)
let () =
  Program.register ~name:"aurora/kv-server" (fun k p th ->
      let ctx = th.Thread.context in
      match ctx.Context.pc with
      | 0 ->
        let pages = Context.reg_int ctx 2 in
        let e = Syscall.mmap_anon k p ~npages:pages in
        Context.set_reg_int ctx 1 e.Vmmap.start_vpn;
        ctx.Context.pc <- 1;
        Program.Continue
      | _ -> (
        let fd = Context.reg_int ctx 6 in
        match Syscall.read k p fd ~len:8 with
        | `Data s when String.length s = 8 ->
          let opnum = Int64.to_int (String.get_int64_le s 0) in
          let base = Context.reg_int ctx 1 in
          let spec = spec_of_ctx ctx in
          let kind, key, value = Workload.op_of spec ~opnum in
          let result =
            match kind with
            | Workload.Get -> apply_get k p ~base ~key
            | Workload.Set ->
              apply_set k p ~base ~key ~value;
              value
            | Workload.Incr ->
              let v = Int64.add (apply_get k p ~base ~key) 1L in
              apply_set k p ~base ~key ~value:v;
              v
            | Workload.Del ->
              apply_set k p ~base ~key ~value:0L;
              0L
          in
          let reply = Bytes.create 8 in
          Bytes.set_int64_le reply 0 result;
          (match Syscall.write k p fd (Bytes.to_string reply) with
           | `Written _ | `Would_block | `Broken -> ());
          Context.set_reg_int ctx 4 (Context.reg_int ctx 4 + 1);
          Program.Continue
        | `Data _ -> Program.Continue (* partial request: ignore *)
        | `Would_block -> (
          match Fd.get p.Process.fdtable fd with
          | Some { Fd.kind = Fd.Obj oid; _ } -> Program.Block (Thread.Wait_read oid)
          | _ -> Program.Exit_program 1)
        | `Eof -> Program.Exit_program 0))

(* A parked holder for the client end of the server socket. *)
let () =
  Program.register ~name:"aurora/kv-client" (fun _ _ _ -> Program.Block Thread.Wait_forever)

(* --- module API -------------------------------------------------------- *)

let configure_ctx ctx c ~recover =
  Context.set_reg_int ctx 2 (npages c);
  Context.set_reg_int ctx 3 c.ops_limit;
  Context.set_reg_int ctx 5 (mode_tag c.mode);
  Context.set_reg_int ctx 7 c.spec.Workload.nkeys;
  Context.set_reg_int ctx 8 c.spec.Workload.write_pct;
  Context.set_reg_int ctx 9
    ((c.spec.Workload.hot_key_pct * 1000) + c.spec.Workload.hot_access_pct);
  Context.set_reg_int ctx 10 c.snapshot_every;
  Context.set_reg_int ctx 12 c.fsync_every;
  Context.set_reg_int ctx 13 (if recover then 1 else if c.preload then 3 else 0);
  Context.set_reg_int ctx 14 c.ops_per_step

let spawn k ?(container = 0) ?(recover = false) c =
  let p = Kernel.spawn k ~container ~name:"kvstore" ~program:"aurora/kvstore" () in
  configure_ctx (Process.main_thread p).Thread.context c ~recover;
  p

let spawn_server k ?container c ~fd p =
  ignore k;
  ignore container;
  let ctx = (Process.main_thread p).Thread.context in
  configure_ctx ctx c ~recover:false;
  Context.set_reg_int ctx 6 fd

let spawn_server_pair k ?(container = 0) c =
  let server = Kernel.spawn k ~container ~name:"kv-server" ~program:"aurora/kv-server" () in
  let client = Kernel.spawn k ~name:"kv-client" ~program:"aurora/kv-client" () in
  let sfd, cfd = Syscall.socketpair k server in
  let c_ofd = Option.get (Fd.get server.Process.fdtable cfd) in
  c_ofd.Fd.refcount <- c_ofd.Fd.refcount + 1;
  let client_fd = 4 in
  Fd.install_at client.Process.fdtable client_fd c_ofd;
  ignore (Fd.release server.Process.fdtable cfd);
  let ctx = (Process.main_thread server).Thread.context in
  configure_ctx ctx c ~recover:false;
  Context.set_reg_int ctx 6 sfd;
  (server, client, client_fd)

let client_request k p ~fd ~opnum =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int opnum);
  match Syscall.write k p fd (Bytes.to_string b) with
  | `Written _ -> ()
  | `Would_block | `Broken -> invalid_arg "Kvstore.client_request: send failed"

let client_reply k p ~fd =
  match Syscall.read k p fd ~len:8 with
  | `Data s -> Some s
  | `Would_block | `Eof -> None

let ops_done (p : Process.t) = Context.reg_int (Process.main_thread p).Thread.context 4
let base_vpn (p : Process.t) = Context.reg_int (Process.main_thread p).Thread.context 1

let region_digest k p c =
  ignore k;
  let base = base_vpn p in
  let acc = ref 0L in
  for i = 0 to npages c - 1 do
    let content = Vmmap.read p.Process.vm ~vpn:(base + i) in
    acc := Content.hash (Content.of_seed (Int64.add !acc (Content.hash content)))
  done;
  !acc

let repair_after_restore (p : Process.t) =
  (Process.main_thread p).Thread.context.Context.pc <- 4
