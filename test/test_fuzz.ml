(* Model-based fuzzing of transparent persistence: arbitrary syscall
   histories (memory, pipes, sockets, files, message queues,
   semaphores) are applied to a process; the machine is checkpointed,
   crashed and restored; then the complete observable state — page
   contents, buffered pipe/socket bytes, file contents and offsets,
   queued messages, semaphore values — must match a reference machine
   that executed the same history without ever being interrupted.

   This is the paper's core promise quantified over random programs:
   the application "continues executing oblivious to the
   interruption". *)

open Aurora_vm
open Aurora_posix
open Aurora_proc
open Aurora_objstore
open Aurora_sls

let () =
  Program.register ~name:"fuzz/parked" (fun _ _ _ -> Program.Block Thread.Wait_forever)

(* The nightly CI job runs these suites at a multiple of the default
   case counts (AURORA_FUZZ_FACTOR=10) without a separate build; any
   failing seed reproduces locally by exporting the same factor. *)
let fuzz_count n =
  match Option.bind (Sys.getenv_opt "AURORA_FUZZ_FACTOR") int_of_string_opt with
  | Some f when f > 0 -> n * f
  | _ -> n

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)
(* ------------------------------------------------------------------ *)

type op =
  | Mmap of int                      (* pages, 1-6 *)
  | Mem_write of int * int * int64   (* region idx, page idx, value *)
  | Pipe_create
  | Pipe_write of int * string
  | Pipe_read of int * int
  | Sock_pair
  | Sock_send of int * bool * string (* pair idx, from-first-end, data *)
  | Sock_recv of int * bool * int
  | File_open of int                 (* name id, 0-3 *)
  | File_write of int * string       (* file handle idx *)
  | File_seek of int * int
  | Msg_send of int * string         (* mtype 1-4 *)
  | Msg_recv
  | Sem_post
  | Sem_trywait

let op_gen =
  let open QCheck.Gen in
  let small_str = string_size ~gen:(char_range 'a' 'z') (int_range 1 24) in
  frequency
    [
      (2, map (fun n -> Mmap (1 + (n mod 6))) small_nat);
      (6, map3 (fun r p v -> Mem_write (r, p, v)) small_nat (int_bound 5) int64);
      (1, return Pipe_create);
      (3, map2 (fun i s -> Pipe_write (i, s)) small_nat small_str);
      (2, map2 (fun i n -> Pipe_read (i, 1 + (n mod 16))) small_nat small_nat);
      (1, return Sock_pair);
      (3, map3 (fun i b s -> Sock_send (i, b, s)) small_nat bool small_str);
      (2, map3 (fun i b n -> Sock_recv (i, b, 1 + (n mod 16))) small_nat bool small_nat);
      (1, map (fun n -> File_open (n mod 4)) small_nat);
      (3, map2 (fun i s -> File_write (i, s)) small_nat small_str);
      (1, map2 (fun i n -> File_seek (i, n mod 64)) small_nat small_nat);
      (2, map2 (fun t s -> Msg_send (1 + (t mod 4), s)) small_nat small_str);
      (1, return Msg_recv);
      (1, return Sem_post);
      (1, return Sem_trywait);
    ]

let pp_op = function
  | Mmap n -> Printf.sprintf "Mmap %d" n
  | Mem_write (r, p, v) -> Printf.sprintf "Mem_write (%d,%d,%Ld)" r p v
  | Pipe_create -> "Pipe_create"
  | Pipe_write (i, s) -> Printf.sprintf "Pipe_write (%d,%S)" i s
  | Pipe_read (i, n) -> Printf.sprintf "Pipe_read (%d,%d)" i n
  | Sock_pair -> "Sock_pair"
  | Sock_send (i, b, s) -> Printf.sprintf "Sock_send (%d,%b,%S)" i b s
  | Sock_recv (i, b, n) -> Printf.sprintf "Sock_recv (%d,%b,%d)" i b n
  | File_open n -> Printf.sprintf "File_open %d" n
  | File_write (i, s) -> Printf.sprintf "File_write (%d,%S)" i s
  | File_seek (i, n) -> Printf.sprintf "File_seek (%d,%d)" i n
  | Msg_send (t, s) -> Printf.sprintf "Msg_send (%d,%S)" t s
  | Msg_recv -> "Msg_recv"
  | Sem_post -> "Sem_post"
  | Sem_trywait -> "Sem_trywait"

let ops_arbitrary =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 5 60) op_gen)

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)
(* ------------------------------------------------------------------ *)

type session = {
  m : Machine.t;
  p : Process.t;
  cid : int;
  mutable regions : Vmmap.entry list;
  mutable pipes : (int * int) list; (* (rfd, wfd) *)
  mutable socks : (int * int) list;
  mutable files : int list;
  msgq : int;
  sem : int;
}

let fresh_session () =
  let m = Machine.create () in
  let k = m.Machine.kernel in
  let c = Kernel.new_container k ~name:"fuzz" in
  let p = Kernel.spawn k ~container:c.Container.cid ~name:"subject"
      ~program:"fuzz/parked" () in
  Syscall.mkdir k p "/fz";
  let msgq = Syscall.msgq_open k p ~key:"fuzz-q" in
  let sem = Syscall.sem_open k p ~name:"/fuzz-sem" ~value:0 in
  { m; p; cid = c.Container.cid; regions = []; pipes = []; socks = []; files = [];
    msgq; sem }

let nth_mod xs i = if xs = [] then None else Some (List.nth xs (i mod List.length xs))

let apply_op s op =
  let k = s.m.Machine.kernel in
  match op with
  | Mmap n -> s.regions <- s.regions @ [ Syscall.mmap_anon k s.p ~npages:n ]
  | Mem_write (r, page, v) -> (
    match nth_mod s.regions r with
    | Some e ->
      Syscall.mem_write k s.p ~vpn:(e.Vmmap.start_vpn + (page mod e.Vmmap.npages))
        ~offset:0 ~value:v
    | None -> ())
  | Pipe_create -> s.pipes <- s.pipes @ [ Syscall.pipe k s.p ]
  | Pipe_write (i, data) -> (
    match nth_mod s.pipes i with
    | Some (_, wfd) -> (
      match Syscall.write k s.p wfd data with
      | `Written _ | `Would_block | `Broken -> ())
    | None -> ())
  | Pipe_read (i, n) -> (
    match nth_mod s.pipes i with
    | Some (rfd, _) -> (
      match Syscall.read k s.p rfd ~len:n with `Data _ | `Eof | `Would_block -> ())
    | None -> ())
  | Sock_pair -> s.socks <- s.socks @ [ Syscall.socketpair k s.p ]
  | Sock_send (i, first, data) -> (
    match nth_mod s.socks i with
    | Some (a, b) -> (
      match Syscall.write k s.p (if first then a else b) data with
      | `Written _ | `Would_block | `Broken -> ())
    | None -> ())
  | Sock_recv (i, first, n) -> (
    match nth_mod s.socks i with
    | Some (a, b) -> (
      match Syscall.read k s.p (if first then a else b) ~len:n with
      | `Data _ | `Eof | `Would_block -> ())
    | None -> ())
  | File_open n ->
    let path = Printf.sprintf "/fz/file%d" n in
    s.files <- s.files @ [ Syscall.open_file k s.p ~create:true path ]
  | File_write (i, data) -> (
    match nth_mod s.files i with
    | Some fd -> ignore (Syscall.write k s.p fd data)
    | None -> ())
  | File_seek (i, pos) -> (
    match nth_mod s.files i with
    | Some fd -> Syscall.lseek k s.p fd pos
    | None -> ())
  | Msg_send (mtype, data) -> (
    match Syscall.msgq_send k s.p s.msgq ~mtype data with `Ok | `Would_block -> ())
  | Msg_recv -> (
    match Syscall.msgq_recv k s.p s.msgq () with `Msg _ | `Would_block -> ())
  | Sem_post -> Syscall.sem_post k s.p s.sem
  | Sem_trywait -> (match Syscall.sem_wait k s.p s.sem with `Ok | `Would_block -> ())

(* The complete observable state, as a string. Draining reads are
   destructive, so digesting ends the session. *)
let digest s =
  let k = s.m.Machine.kernel in
  let buf = Buffer.create 256 in
  let p = s.p in
  List.iteri
    (fun ri e ->
      for i = 0 to e.Vmmap.npages - 1 do
        Buffer.add_string buf
          (Printf.sprintf "R%d.%d=%Lx;" ri i
             (Content.to_seed (Vmmap.read p.Process.vm ~vpn:(e.Vmmap.start_vpn + i))))
      done)
    s.regions;
  let drain tag fd =
    let rec go () =
      match Syscall.read k p fd ~len:64 with
      | `Data d ->
        Buffer.add_string buf d;
        go ()
      | `Eof | `Would_block -> Buffer.add_string buf (Printf.sprintf "|%s;" tag)
    in
    go ()
  in
  List.iteri (fun i (rfd, _) -> drain (Printf.sprintf "P%d" i) rfd) s.pipes;
  List.iteri
    (fun i (a, b) ->
      drain (Printf.sprintf "Sa%d" i) a;
      drain (Printf.sprintf "Sb%d" i) b)
    s.socks;
  List.iteri
    (fun i fd ->
      let size = Syscall.file_size k p fd in
      let off = (Option.get (Fd.get p.Process.fdtable fd)).Fd.offset in
      Buffer.add_string buf (Printf.sprintf "F%d@%d#%d:" i off size);
      Syscall.lseek k p fd 0;
      drain (Printf.sprintf "F%d" i) fd)
    s.files;
  let rec drain_q () =
    match Syscall.msgq_recv k p s.msgq () with
    | `Msg (t, d) ->
      Buffer.add_string buf (Printf.sprintf "M%d:%s;" t d);
      drain_q ()
    | `Would_block -> ()
  in
  drain_q ();
  let rec drain_sem n =
    match Syscall.sem_wait k p s.sem with
    | `Ok -> drain_sem (n + 1)
    | `Would_block -> Buffer.add_string buf (Printf.sprintf "SEM=%d;" n)
  in
  drain_sem 0;
  Buffer.contents buf

(* Rebind the session's handles to the restored process. Descriptor
   numbers and vpns are preserved by restore, so the handles stay
   valid; only the process pointer changes. *)
let rebind s p' = { s with p = p' }

let prop_random_history_survives_crash =
  QCheck.Test.make ~name:"random syscall histories survive checkpoint+crash+restore"
    ~count:(fuzz_count 40) ops_arbitrary (fun ops ->
      (* Reference execution: never interrupted. *)
      let ref_s = fresh_session () in
      List.iter (apply_op ref_s) ops;
      let expected = digest ref_s in
      (* Subject execution: same ops, then checkpoint, power failure,
         recovery, restore. *)
      let s = fresh_session () in
      List.iter (apply_op s) ops;
      let g = Machine.persist s.m (`Container s.cid) in
      let b = Machine.checkpoint_now s.m g () in
      Store.wait_durable s.m.Machine.disk_store b.Types.durable_at;
      Machine.crash s.m;
      let m' = Machine.recover s.m in
      let g' = Machine.persist m' (`Container s.cid) in
      let pids, _ = Machine.restore_group m' g' ~gen:b.Types.gen () in
      let p' = Kernel.proc_exn m'.Machine.kernel (List.hd pids) in
      let s' = rebind { s with m = m' } p' in
      let actual = digest s' in
      if String.equal expected actual then true
      else
        QCheck.Test.fail_reportf "state diverged:@.expected %s@.actual   %s" expected
          actual)

let prop_random_history_survives_rollback_replay =
  QCheck.Test.make
    ~name:"rollback + deterministic re-execution reproduces the same state" ~count:(fuzz_count 20)
    QCheck.(
      pair ops_arbitrary
        (QCheck.make QCheck.Gen.(list_size (int_range 1 20) op_gen)
           ~print:(fun ops -> String.concat "; " (List.map pp_op ops))))
    (fun (prefix, suffix) ->
      (* Run prefix, checkpoint, run suffix; digest. Then roll back to
         the checkpoint and re-run the suffix: same digest. *)
      let s = fresh_session () in
      List.iter (apply_op s) prefix;
      let g = Machine.persist s.m (`Container s.cid) in
      ignore (Machine.checkpoint_now s.m g ());
      (* Handles snapshot: suffix must not create new resources, or
         the rollback would forget them... it may: the re-execution
         recreates them identically because the interpreter is
         deterministic. But fd numbers allocated after the rollback
         could differ if the registry state differs — so we compare
         digests, which are handle-agnostic. *)
      let s_after = { s with regions = s.regions; pipes = s.pipes } in
      List.iter (apply_op s_after) suffix;
      let regions1 = s_after.regions and pipes1 = s_after.pipes
      and socks1 = s_after.socks and files1 = s_after.files in
      let expected =
        digest { s_after with regions = regions1; pipes = pipes1; socks = socks1;
                 files = files1 }
      in
      (* Roll back and replay. *)
      let pids = Api.sls_rollback s.m g in
      let p' = Kernel.proc_exn s.m.Machine.kernel (List.hd pids) in
      let s2 =
        { s with p = p';
          regions = List.filteri (fun i _ -> i < List.length s.regions) s.regions;
          pipes = s.pipes; socks = s.socks; files = s.files }
      in
      List.iter (apply_op s2) suffix;
      let actual = digest s2 in
      if String.equal expected actual then true
      else
        QCheck.Test.fail_reportf "rollback replay diverged:@.expected %s@.actual   %s"
          expected actual)


(* ------------------------------------------------------------------ *)
(* Crash-timing fuzz                                                   *)
(* ------------------------------------------------------------------ *)

(* A self-mutating program whose state digest we can compute at any
   instant: writes (step) into page (step mod 8). *)
let () =
  Program.register ~name:"fuzz/mutator" (fun k p th ->
      let ctx = th.Thread.context in
      if ctx.Context.pc = 0 then begin
        let e = Syscall.mmap_anon k p ~npages:8 in
        Context.set_reg_int ctx 1 e.Vmmap.start_vpn;
        ctx.Context.pc <- 1;
        Program.Continue
      end
      else begin
        let step = Context.reg_int ctx 2 + 1 in
        Context.set_reg_int ctx 2 step;
        Syscall.mem_write k p ~vpn:(Context.reg_int ctx 1 + (step mod 8)) ~offset:0
          ~value:(Int64.of_int step);
        Program.Continue
      end)

let mutator_digest (p : Process.t) =
  let ctx = (Process.main_thread p).Thread.context in
  let base = Context.reg_int ctx 1 in
  let buf = Buffer.create 64 in
  Buffer.add_string buf (string_of_int (Context.reg_int ctx 2));
  for i = 0 to 7 do
    Buffer.add_string buf
      (Printf.sprintf ":%Lx" (Content.to_seed (Vmmap.read p.Process.vm ~vpn:(base + i))))
  done;
  Buffer.contents buf

let prop_crash_at_random_instant_recovers_a_checkpoint =
  (* Run under periodic checkpoints; crash at an arbitrary instant
     with the device queue in an arbitrary state; recovery must yield
     a store that passes fsck and restores to EXACTLY the state one of
     the committed checkpoints captured — never a torn hybrid. *)
  QCheck.Test.make ~name:"random-instant crashes recover exactly one checkpoint's state"
    ~count:(fuzz_count 30)
    QCheck.(pair (int_range 1 40) (int_range 0 2_000))
    (fun (run_ms_tenths, extra_us) ->
      let m = Machine.create () in
      let k = m.Machine.kernel in
      let c = Kernel.new_container k ~name:"crashy" in
      let p = Kernel.spawn k ~container:c.Container.cid ~name:"mutator"
          ~program:"fuzz/mutator" () in
      let _g = Machine.persist m
          ~interval:(Aurora_simtime.Duration.milliseconds 1)
          (`Container c.Container.cid) in
      Machine.run m
        (Aurora_simtime.Duration.add
           (Aurora_simtime.Duration.microseconds (run_ms_tenths * 100))
           (Aurora_simtime.Duration.microseconds extra_us));
      ignore p;
      (* Crash NOW: no draining, whatever is in flight is lost. *)
      Machine.crash m;
      let m' = Machine.recover m in
      let store = m'.Machine.disk_store in
      (let r = Store.fsck store in
       if not (Store.fsck_ok r) then
         QCheck.Test.fail_reportf "fsck after random crash: %s"
           (String.concat "; "
              (r.Store.problems
              @ List.map (fun (g, why) -> Printf.sprintf "gen %d lost: %s" g why)
                  r.Store.lost)));
      match Store.latest store with
      | None -> true (* crashed before anything became durable *)
      | Some gen ->
        (* Restore the recovered checkpoint, then independently rebuild
           the expected state by restoring on a scratch machine twice:
           determinism makes the digests comparable. *)
        let g' = Machine.persist m' (`Container c.Container.cid) in
        let pids, _ = Machine.restore_group m' g' ~gen () in
        let p' = Kernel.proc_exn m'.Machine.kernel (List.hd pids) in
        let restored = mutator_digest p' in
        (* The restored step count must be consistent with its pages:
           page (step mod 8) holds a content whose history ends at
           step. Verify internal consistency by replaying from scratch
           to the same step count. *)
        let steps = Context.reg_int (Process.main_thread p').Thread.context 2 in
        let scratch = Machine.create () in
        let sk = scratch.Machine.kernel in
        let sc = Kernel.new_container sk ~name:"scratch" in
        let sp = Kernel.spawn sk ~container:sc.Container.cid ~name:"mutator"
            ~program:"fuzz/mutator" () in
        let guard = ref 0 in
        while
          Context.reg_int (Process.main_thread sp).Thread.context 2 < steps
          && !guard < 2_000_000
        do
          ignore (Scheduler.step_all sk);
          incr guard
        done;
        let expected = mutator_digest sp in
        if String.equal restored expected then true
        else
          QCheck.Test.fail_reportf
            "torn state after crash at t=%d00+%dus:@.restored %s@.expected %s"
            run_ms_tenths extra_us restored expected)

(* ------------------------------------------------------------------ *)
(* Pipelined crash fuzz                                                *)
(* ------------------------------------------------------------------ *)

(* With several checkpoint epochs in flight (window 3, 1 ms interval),
   power-fail at an arbitrary instant: the reopened store must expose
   a contiguous committed PREFIX of the pre-crash generations — every
   epoch durable before the crash still present, never a torn suffix —
   pass fsck and the block crosscheck, and restore to exactly a state
   the program actually passed through. Half the cases run under a
   mild transient-fault plan, so retried writes stretch the pipeline's
   queues too. *)
let prop_pipelined_crashes_expose_committed_prefix =
  let open Aurora_simtime in
  QCheck.Test.make
    ~name:"pipelined crashes recover a committed prefix of generations"
    ~count:(fuzz_count 30)
    QCheck.(triple (int_range 1 60) (int_range 0 2_000) bool)
    (fun (run_tenths, extra_us, with_faults) ->
      let faults =
        if with_faults then
          Some
            (Aurora_device.Fault.plan
               ~seed:(Int64.of_int ((run_tenths * 2048) + extra_us + 1))
               ~transient_read:1e-4 ~transient_write:5e-5 ())
        else None
      in
      let m = Machine.create ~stripes:2 ~max_inflight_ckpts:3 ?faults () in
      m.Machine.history_window <- 1_000; (* keep every generation: the
                                            prefix check needs them *)
      let k = m.Machine.kernel in
      let c = Kernel.new_container k ~name:"pipelined" in
      let p = Kernel.spawn k ~container:c.Container.cid ~name:"mutator"
          ~program:"fuzz/mutator" () in
      ignore p;
      ignore
        (Machine.persist m ~interval:(Duration.milliseconds 1)
           (`Container c.Container.cid));
      Machine.run m
        (Duration.add
           (Duration.microseconds (run_tenths * 100))
           (Duration.microseconds extra_us));
      let store = m.Machine.disk_store in
      let committed = List.sort Int.compare (Store.generations store) in
      let at_crash = Machine.now m in
      let durable =
        List.filter
          (fun g ->
            match Store.gen_durable_at store g with
            | Some d -> Duration.(d <= at_crash)
            | None -> true (* conservatively: must survive *))
          committed
      in
      Machine.crash m;
      let m' = Machine.recover m in
      let store' = m'.Machine.disk_store in
      (let r = Store.fsck store' in
       if not (Store.fsck_ok r) then
         QCheck.Test.fail_reportf "fsck after pipelined crash: %s"
           (String.concat "; "
              (r.Store.problems
              @ List.map (fun (g, why) -> Printf.sprintf "gen %d lost: %s" g why)
                  r.Store.lost)));
      let recovered = List.sort Int.compare (Store.generations store') in
      List.iter
        (fun g ->
          if not (List.mem g recovered) then
            QCheck.Test.fail_reportf "gen %d was durable before the crash but lost"
              g)
        durable;
      let rec is_prefix xs ys =
        match (xs, ys) with
        | [], _ -> true
        | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
        | _ :: _, [] -> false
      in
      let show l = String.concat "," (List.map string_of_int l) in
      if not (is_prefix recovered committed) then
        QCheck.Test.fail_reportf
          "torn suffix: recovered generations [%s] not a prefix of committed [%s]"
          (show recovered) (show committed);
      let x = Store.crosscheck store' in
      if not x.Store.x_within_1pct then
        QCheck.Test.fail_reportf
          "crosscheck after pipelined crash: %d reachable vs %d live"
          x.Store.x_reachable_blocks x.Store.x_live_blocks;
      match Store.latest store' with
      | None -> true (* crashed before anything became durable *)
      | Some gen ->
        let g' = Machine.persist m' (`Container c.Container.cid) in
        let pids, _ = Machine.restore_group m' g' ~gen () in
        let p' = Kernel.proc_exn m'.Machine.kernel (List.hd pids) in
        let restored = mutator_digest p' in
        let steps = Context.reg_int (Process.main_thread p').Thread.context 2 in
        let scratch = Machine.create () in
        let sk = scratch.Machine.kernel in
        let sc = Kernel.new_container sk ~name:"scratch" in
        let sp = Kernel.spawn sk ~container:sc.Container.cid ~name:"mutator"
            ~program:"fuzz/mutator" () in
        let guard = ref 0 in
        while
          Context.reg_int (Process.main_thread sp).Thread.context 2 < steps
          && !guard < 2_000_000
        do
          ignore (Scheduler.step_all sk);
          incr guard
        done;
        let expected = mutator_digest sp in
        if String.equal restored expected then true
        else
          QCheck.Test.fail_reportf
            "restored state not one the program passed through:@.restored %s@.expected %s"
            restored expected)

(* ------------------------------------------------------------------ *)
(* Media-fault fuzz                                                    *)
(* ------------------------------------------------------------------ *)

(* Random fault plans over random commit/crash/reopen/scrub cycles.
   The robustness contract: every committed generation is either fully
   readable bit-exact, or absent (quarantined/reported lost) — the
   store never hands back silently wrong data, and scrub leaves it
   consistent. *)
let prop_faulty_media_never_serves_wrong_data =
  let open Aurora_simtime in
  let open Aurora_device in
  QCheck.Test.make
    ~name:"random media faults: committed data is bit-exact or reported lost"
    ~count:(fuzz_count 30)
    QCheck.(triple (int_range 0 1_000_000) (int_range 0 3) (int_range 2 4))
    (fun (case_seed, rate_idx, cycles) ->
      let rate = [| 0.; 1e-4; 1e-3; 1e-2 |].(rate_idx) in
      let clock = Clock.create () in
      let dev =
        Devarray.create
          ~stripes:(1 + (case_seed mod 2))
          ~faults:
            (Fault.plan
               ~seed:(Int64.of_int (case_seed + 1))
               ~transient_read:rate
               ~transient_write:(rate /. 2.)
               ~corruption:(rate /. 10.)
               ())
          ~clock ~profile:Profile.optane_900p "fuzz-nvme"
      in
      let store = ref (Store.format ~dev ()) in
      let reference = Hashtbl.create 8 in
      let survived = ref true in
      (try
         for cycle = 1 to cycles do
           ignore (Store.begin_generation !store ());
           let npages = 8 + ((case_seed + (cycle * 31)) mod 25) in
           let pages =
             List.init npages (fun i ->
                 (i, Int64.of_int ((case_seed * 100) + (cycle * 1000) + i)))
           in
           List.iter
             (fun (pindex, seed) -> Store.put_page !store ~oid:1 ~pindex ~seed)
             pages;
           let record = Printf.sprintf "cycle %d of case %d" cycle case_seed in
           Store.put_record !store ~oid:7 record;
           (match Store.commit_result !store () with
            | Ok (g, d) ->
              Store.wait_durable !store d;
              Hashtbl.replace reference g (pages, record)
            | Error _ -> () (* typed failure; the open gen was rolled back *));
           (* A latent sector lands somewhere in the used area. *)
           let used = Devarray.used_blocks dev in
           if used > 3 then
             Devarray.inject_latent dev
               (2 + (((case_seed * 7) + (cycle * 13)) mod (used - 2)));
           if (case_seed + cycle) mod 2 = 0 then begin
             Devarray.crash dev;
             store := Store.open_exn ~dev
           end;
           ignore (Store.fsck ~scrub:true !store)
         done
       with Store.Fail _ ->
         (* A typed, loud failure (e.g. both superblock slots corrupted
            at reopen) is an acceptable outcome — only *silent*
            wrongness violates the contract. *)
         survived := false);
      if !survived then begin
        let gens = Store.generations !store in
        Hashtbl.iter
          (fun g (pages, record) ->
            if List.mem g gens then begin
              List.iter
                (fun (pindex, seed) ->
                  match Store.read_page !store g ~oid:1 ~pindex with
                  | Some s when Int64.equal s seed -> ()
                  | Some s ->
                    QCheck.Test.fail_reportf
                      "SILENT CORRUPTION: gen %d page %d reads %Ld, wrote %Ld"
                      g pindex s seed
                  | None ->
                    QCheck.Test.fail_reportf
                      "gen %d present but page %d missing" g pindex
                  | exception Store.Fail e ->
                    QCheck.Test.fail_reportf
                      "gen %d survived scrub yet page %d unreadable: %s" g
                      pindex (Store.describe_error e))
                pages;
              match Store.read_record !store g ~oid:7 with
              | Some r when String.equal r record -> ()
              | Some r ->
                QCheck.Test.fail_reportf
                  "SILENT CORRUPTION: gen %d record reads %S, wrote %S" g r
                  record
              | None | (exception Store.Fail _) ->
                QCheck.Test.fail_reportf "gen %d present but record unreadable"
                  g
            end
            (* absent => quarantined: reported, not silent *))
          reference;
        let r = Store.fsck !store in
        if not (Store.fsck_ok r) then
          QCheck.Test.fail_reportf "store inconsistent after fault fuzz: %s"
            (String.concat "; " r.Store.problems)
      end;
      true)

(* ------------------------------------------------------------------ *)
(* Replication fuzz                                                    *)
(* ------------------------------------------------------------------ *)

(* Random network fault plans (loss, duplication, reordering, bit
   flips, timed partitions), random crash instants on either end —
   power-failing the standby, power-failing the primary mid-pipeline —
   and sometimes a standby on faulty media. The contract:

   - the standby always reopens to a committed prefix (fsck clean);
   - nothing corrupt is ever imported: every replicated generation the
     primary still holds is bit-identical on the standby;
   - once partitions heal, a bounded number of ships converges the
     session (lag 0);
   - failing over yields exactly a state the program passed through
     (replay-verified). *)
let prop_replication_converges_under_network_faults =
  let open Aurora_simtime in
  let open Aurora_device in
  QCheck.Test.make
    ~name:"random network faults: standby converges, never corrupt, failover replays"
    ~count:(fuzz_count 20)
    QCheck.(triple (int_range 0 1_000_000) (int_range 0 3) (int_range 3 6))
    (fun (case_seed, severity, ckpts) ->
      let drop, dup, reorder, corrupt =
        [| (0., 0., 0., 0.);
           (0.05, 0.05, 0.1, 0.02);
           (0.15, 0.1, 0.2, 0.08);
           (0.3, 0.15, 0.3, 0.15) |].(severity)
      in
      let partitions =
        if case_seed mod 3 = 0 then []
        else
          let start = Duration.milliseconds (1 + (case_seed mod 7)) in
          let len = Duration.milliseconds (1 + (case_seed mod 5)) in
          [ (start, Duration.add start len) ]
      in
      let faults =
        Netlink.fault_plan
          ~seed:(Int64.of_int (case_seed + 1))
          ~drop ~duplicate:dup ~reorder ~corrupt ~partitions ()
      in
      let m = ref (Machine.create ()) in
      let k = !m.Machine.kernel in
      let c = Kernel.new_container k ~name:"repl-fuzz" in
      ignore
        (Kernel.spawn k ~container:c.Container.cid ~name:"mutator"
           ~program:"fuzz/mutator" ());
      let g =
        ref (Machine.persist !m ~interval:(Duration.seconds 1)
               (`Container c.Container.cid))
      in
      (* A quarter of the cases put the standby itself on faulty media:
         torn imports must be aborted and retried, never acked. *)
      let media_faulty = case_seed mod 4 = 0 in
      let standby_dev =
        if not media_faulty then None
        else
          let dev =
            Devarray.create ~stripes:1
              ~faults:
                (Fault.plan
                   ~seed:(Int64.of_int (case_seed + 17))
                   ~transient_read:5e-4 ~transient_write:5e-4 ())
              ~clock:(Machine.clock !m) ~profile:Profile.optane_900p
              "standby-fuzz"
          in
          match Store.format ~dev () with
          | _ -> Some dev
          | exception Store.Fail _ -> None
      in
      let attach mach grp =
        Machine.attach_standby mach ~faults
          ~ack_timeout:(Duration.microseconds 500) ~max_attempts:3 ?standby_dev
          grp
      in
      let repl = ref (attach !m !g) in
      for i = 1 to ckpts do
        Machine.run !m
          (Duration.microseconds (100 * (1 + ((case_seed + i) mod 20))));
        ignore (Machine.checkpoint_now !m !g ());
        (* Power-fail the standby at a random point between ships. *)
        if (not media_faulty) && (case_seed + (3 * i)) mod 4 = 0 then
          Replica.crash_standby !repl;
        (* Power-fail the primary mid-pipeline: it recovers to a
           committed prefix — possibly BEHIND the standby, which the
           re-established session must quarantine. *)
        if (case_seed + i) mod 5 = 0 then begin
          Machine.crash !m;
          let m' = Machine.recover !m in
          let standby_dev = Store.device (Replica.standby_store !repl) in
          m := m';
          g :=
            Machine.persist m' ~interval:(Duration.seconds 1)
              (`Container c.Container.cid);
          if Store.latest m'.Machine.disk_store <> None then
            ignore (Machine.restore_group m' !g ());
          repl :=
            Machine.attach_standby m' ~faults
              ~ack_timeout:(Duration.microseconds 500) ~max_attempts:3
              ~standby_dev !g
        end
      done;
      (* Heal every partition, then a bounded number of ships must
         converge the session. *)
      Machine.run !m (Duration.milliseconds 30);
      let tries = ref 0 in
      while
        Replica.lag !repl > 0
        && Store.latest !m.Machine.disk_store <> None
        && !tries < 12
      do
        incr tries;
        (match Store.latest !m.Machine.disk_store with
         | Some gen -> ignore (Replica.ship !repl ~gen ~pgid:!g.Types.pgid)
         | None -> ())
      done;
      if Store.latest !m.Machine.disk_store <> None && Replica.lag !repl > 0
      then
        QCheck.Test.fail_reportf
          "session did not converge after heal: lag %d (stats: retrans %d resyncs %d gave_up %d torn %d)"
          (Replica.lag !repl) (Replica.stats !repl).Replica.retransmits
          (Replica.stats !repl).Replica.resyncs
          (Replica.stats !repl).Replica.gave_up
          (Replica.stats !repl).Replica.torn_imports;
      (* The standby reopened (possibly many times) to a committed
         prefix: fsck clean. *)
      let sstore = Replica.standby_store !repl in
      (let r = Store.fsck sstore in
       if not (Store.fsck_ok r) then
         QCheck.Test.fail_reportf "standby fsck: %s"
           (String.concat "; "
              (r.Store.problems
              @ List.map (fun (gn, why) -> Printf.sprintf "gen %d lost: %s" gn why)
                  r.Store.lost)));
      (* Nothing corrupt ever imported: every replicated generation the
         primary still holds is bit-identical on the standby. *)
      let pgens = Store.generations !m.Machine.disk_store in
      List.iter
        (fun (pgen, sgen) ->
          if List.mem pgen pgens then begin
            let want =
              Sendrecv.export !m.Machine.disk_store ~gen:pgen ~pgid:!g.Types.pgid ()
            in
            let got = Sendrecv.export sstore ~gen:sgen ~pgid:!g.Types.pgid () in
            if not (String.equal want got) then
              QCheck.Test.fail_reportf
                "standby diverged on primary gen %d (standby gen %d)" pgen sgen
          end)
        (Replica.mapping !repl);
      (* Fail over and replay-verify the promoted state. *)
      match Replica.standby_latest !repl with
      | None -> true
      | Some _ ->
        let promoted, _report = Machine.failover !m in
        let g' = Machine.persist promoted (`Container c.Container.cid) in
        let pids, _ = Machine.restore_group promoted g' () in
        let p' = Kernel.proc_exn promoted.Machine.kernel (List.hd pids) in
        let restored = mutator_digest p' in
        let steps = Context.reg_int (Process.main_thread p').Thread.context 2 in
        let scratch = Machine.create () in
        let sk = scratch.Machine.kernel in
        let sc = Kernel.new_container sk ~name:"scratch" in
        let sp = Kernel.spawn sk ~container:sc.Container.cid ~name:"mutator"
            ~program:"fuzz/mutator" () in
        let guard = ref 0 in
        while
          Context.reg_int (Process.main_thread sp).Thread.context 2 < steps
          && !guard < 2_000_000
        do
          ignore (Scheduler.step_all sk);
          incr guard
        done;
        let expected = mutator_digest sp in
        if String.equal restored expected then true
        else
          QCheck.Test.fail_reportf
            "failover restored a state the program never passed through:@.restored %s@.expected %s"
            restored expected)

(* ------------------------------------------------------------------ *)
(* Forensics fuzz                                                      *)
(* ------------------------------------------------------------------ *)

(* Crash at random instants and hold the flight recorder to its
   forensic contract: the recovered ring is always the one stored with
   a committed-prefix generation (never a torn or future ring), it
   carries no checkpoint event from an epoch the crash aborted, and
   the post-mortem's pending-epoch list agrees with ground truth
   computed outside the machine — a subset of the committed-but-lost
   generations, and complete for every mark whose black-box write
   verifiably became durable before the crash. A third of the cases
   attach a standby over a lossy link, crash the PRIMARY, then fail
   over: the promoted machine's post-mortem must name exactly the
   primary generations the standby never acknowledged. *)
let prop_forensics_postmortem_matches_ground_truth =
  let open Aurora_simtime in
  let open Aurora_device in
  QCheck.Test.make
    ~name:"random crash instants: postmortem pending/unacked match ground truth"
    ~count:(fuzz_count 25)
    QCheck.(triple (int_range 1 50) (int_range 0 2_000) (int_range 0 2))
    (fun (run_tenths, extra_us, mode) ->
      (* mode 0: plain crash + recover (window 2); mode 1: deep
         pipeline (window 3) so several epochs can be lost at once;
         mode 2: standby attached, crash during replication, fail
         over. *)
      let window = if mode = 1 then 3 else 2 in
      let m = Machine.create ~stripes:2 ~max_inflight_ckpts:window () in
      m.Machine.history_window <- 1_000;
      let k = m.Machine.kernel in
      let c = Kernel.new_container k ~name:"forensics" in
      ignore
        (Kernel.spawn k ~container:c.Container.cid ~name:"mutator"
           ~program:"fuzz/mutator" ());
      let g =
        Machine.persist m ~interval:(Duration.milliseconds 1)
          (`Container c.Container.cid)
      in
      let repl =
        if mode <> 2 then None
        else
          let faults =
            Netlink.fault_plan
              ~seed:(Int64.of_int ((run_tenths * 4096) + extra_us + 1))
              ~drop:0.05 ()
          in
          Some
            (Machine.attach_standby m ~faults
               ~ack_timeout:(Duration.microseconds 500) ~max_attempts:3 g)
      in
      Machine.run m
        (Duration.add
           (Duration.microseconds (run_tenths * 100))
           (Duration.microseconds extra_us));
      let store = m.Machine.disk_store in
      let committed = List.sort Int.compare (Store.generations store) in
      let at_crash = Machine.now m in
      (* The live marks just before the lights go out: used for the
         completeness half of the pending-epoch check. *)
      let live_marks = Recorder.captures (Machine.recorder m) in
      (* A black-box write is a single out-of-band block: its durable
         instant is its issue instant plus one block's transfer cost.
         A mark refreshed at [cm_at] was covered by the black-box
         write issued right then, so [cm_at + cost < crash] proves the
         mark survived on the device. *)
      let bbox_cost =
        Profile.transfer_cost Profile.optane_900p ~op:`Write ~bytes:4096
      in
      let acked = Option.map (fun r -> Replica.acked_gen r) repl in
      Machine.crash m;
      match mode with
      | 2 -> (
        let r = Option.get repl in
        match Replica.standby_latest r with
        | None -> true (* nothing ever replicated: nothing to promote *)
        | Some _ ->
          let expected_unacked =
            match Option.join acked with
            | None -> committed
            | Some a -> List.filter (fun gn -> gn > a) committed
          in
          let promoted, report = Machine.failover m in
          let pm =
            match Machine.postmortem promoted with
            | Some pm -> pm
            | None ->
              QCheck.Test.fail_report
                "promoted machine has no postmortem after failover"
          in
          (match pm.Machine.pm_crash_reason with
           | Some reason
             when String.length reason >= 9
                  && String.sub reason 0 9 = "failover:" -> ()
           | _ ->
             QCheck.Test.fail_report
               "failover postmortem not stamped with a failover crash reason");
          let got = List.sort Int.compare pm.Machine.pm_unacked_gens in
          let want = List.sort Int.compare expected_unacked in
          let show l = String.concat "," (List.map string_of_int l) in
          if got <> want then
            QCheck.Test.fail_reportf
              "failover unacked gens [%s] but ground truth [%s] (acked %s)"
              (show got) (show want)
              (match Option.join acked with
               | Some a -> string_of_int a
               | None -> "-");
          if report.Machine.fo_rpo <> List.length want then
            QCheck.Test.fail_reportf "RPO %d but %d unacked generations"
              report.Machine.fo_rpo (List.length want);
          true)
      | _ -> (
        let m' = Machine.recover m in
        let store' = m'.Machine.disk_store in
        let recovered = List.sort Int.compare (Store.generations store') in
        let tip = match Store.latest store' with Some gn -> gn | None -> 0 in
        match Machine.postmortem m' with
        | None ->
          (* Only acceptable when nothing durable carried a ring and no
             black box was ever written: i.e. we died before the first
             capture's black box landed. *)
          if recovered <> [] then
            QCheck.Test.fail_reportf
              "no postmortem despite %d recovered generations"
              (List.length recovered)
          else true
        | Some pm ->
          (* The recovered ring is the committed prefix's newest. *)
          (match pm.Machine.pm_recovered_gen with
           | Some gn when gn <> tip ->
             QCheck.Test.fail_reportf
               "ring recovered from gen %d but store tip is %d" gn tip
           | Some _ | None -> ());
          (* No event from an epoch beyond the committed prefix: the
             ring stored with generation [tip] predates every later
             epoch's commit. *)
          List.iter
            (fun ev ->
              if
                ev.Recorder.ev_gen > tip
                && String.length ev.Recorder.ev_kind >= 5
                && String.sub ev.Recorder.ev_kind 0 5 = "ckpt."
              then
                QCheck.Test.fail_reportf
                  "recovered ring holds %s for gen %d beyond tip %d"
                  ev.Recorder.ev_kind ev.Recorder.ev_gen tip)
            pm.Machine.pm_events;
          (* Soundness: every pending epoch was committed by the dying
             machine and lost with the crash. *)
          let pending =
            List.map (fun mk -> mk.Recorder.cm_gen) pm.Machine.pm_pending_epochs
          in
          List.iter
            (fun gn ->
              if gn <= tip then
                QCheck.Test.fail_reportf "pending epoch %d at or below tip %d"
                  gn tip;
              if not (List.mem gn committed) then
                QCheck.Test.fail_reportf
                  "pending epoch %d was never committed" gn;
              if List.mem gn recovered then
                QCheck.Test.fail_reportf
                  "pending epoch %d is durable (recovered)" gn)
            pending;
          (* Completeness: a lost epoch whose black-box write provably
             became durable before the crash must be reported. *)
          List.iter
            (fun mk ->
              let gn = mk.Recorder.cm_gen in
              if
                gn > tip
                && (not (List.mem gn recovered))
                && Duration.(Duration.add mk.Recorder.cm_at bbox_cost < at_crash)
                && not (List.mem gn pending)
              then
                QCheck.Test.fail_reportf
                  "epoch %d lost with a durable black-box mark but not reported pending"
                  gn)
            live_marks;
          if pending <> [] && pm.Machine.pm_crash_reason = None then
            QCheck.Test.fail_report
              "pending epochs without a stamped crash reason";
          if pm.Machine.pm_unacked_gens <> [] then
            QCheck.Test.fail_report
              "unacked generations reported without replication attached";
          true))

(* ------------------------------------------------------------------ *)
(* Indexes: the object store's B+tree and dedup table                  *)
(* ------------------------------------------------------------------ *)

(* The node format as the field-by-field stream the B+tree wrote and
   read through [Serial] before it kept leaves as their block image.
   It is the oracle for the flushed bytes: every node a flush writes
   must decode with it and re-encode to the very same bytes. *)
module Stream_node = struct
  type node =
    | Leaf of (int64 * Btree.value) array
    | Internal of int64 array * int array

  let encode node =
    let w = Serial.writer () in
    (match node with
     | Leaf entries ->
       Serial.w_u8 w 0;
       Serial.w_int w (Array.length entries);
       Array.iter
         (fun (k, v) ->
           Serial.w_int64 w k;
           match v with
           | Btree.Imm x ->
             Serial.w_u8 w 0;
             Serial.w_int64 w x
           | Btree.Ptr b ->
             Serial.w_u8 w 1;
             Serial.w_int w b)
         entries
     | Internal (keys, children) ->
       Serial.w_u8 w 1;
       Serial.w_int w (Array.length keys);
       Array.iter (Serial.w_int64 w) keys;
       Serial.w_int w (Array.length children);
       Array.iter (Serial.w_int w) children);
    Serial.contents w

  let count r what =
    let n = Serial.r_int r in
    if n < 0 || n > 201 then
      raise (Serial.Corrupt (Printf.sprintf "Btree: %s count %d out of range" what n));
    n

  let decode data =
    let r = Serial.reader data in
    match Serial.r_u8 r with
    | 0 ->
      let n = count r "leaf entry" in
      Leaf
        (Array.init n (fun _ ->
             let k = Serial.r_int64 r in
             match Serial.r_u8 r with
             | 0 -> (k, Btree.Imm (Serial.r_int64 r))
             | 1 -> (k, Btree.Ptr (Serial.r_int r))
             | tag -> raise (Serial.Corrupt (Printf.sprintf "Btree: bad value tag %d" tag))))
    | 1 ->
      let n = count r "internal key" in
      let keys = Array.init n (fun _ -> Serial.r_int64 r) in
      if Serial.r_int r <> n + 1 then raise (Serial.Corrupt "Btree: child/key count mismatch");
      Internal (keys, Array.init (n + 1) (fun _ -> Serial.r_int r))
    | tag -> raise (Serial.Corrupt (Printf.sprintf "Btree: bad node tag %d" tag))
end

module Keys = Map.Make (Int64)

type btree_op =
  | Put of int64 * bool                (* key, a Ptr value (else Imm) *)
  | Run of int64 * int * int           (* ascending: start, length, step *)
  | Lookup of int64
  | Range of int64 * int64
  | Flush of bool                      (* then drop the clean cache *)
  | Epoch
  | Snapshot                           (* retain the root, then a new epoch *)
  | Release of int                     (* drop a snapshot *)

let pp_btree_op = function
  | Put (k, p) -> Printf.sprintf "Put (%Ld,%b)" k p
  | Run (k, n, s) -> Printf.sprintf "Run (%Ld,%d,%d)" k n s
  | Lookup k -> Printf.sprintf "Lookup %Ld" k
  | Range (lo, hi) -> Printf.sprintf "Range (%Ld,%Ld)" lo hi
  | Flush d -> Printf.sprintf "Flush %b" d
  | Epoch -> "Epoch"
  | Snapshot -> "Snapshot"
  | Release i -> Printf.sprintf "Release %d" i

(* Mostly keys from a small window, so runs, replacements and lookups
   meet; some from anywhere in the int64 range, negative included. *)
let btree_key =
  QCheck.Gen.(
    frequency
      [ (4, map Int64.of_int (int_range (-3000) 3000)); (1, ui64);
        (1, oneofl [ Int64.min_int; Int64.max_int; -1L; 0L ]) ])

let btree_op_gen =
  let open QCheck.Gen in
  frequency
    [
      (6, map2 (fun k p -> Put (k, p)) btree_key bool);
      (4, map3 (fun k n s -> Run (k, n, s)) btree_key (int_range 1 400) (int_range 1 3));
      (3, map (fun k -> Lookup k) btree_key);
      (1, map2 (fun a b -> if Int64.compare a b <= 0 then Range (a, b) else Range (b, a))
            btree_key btree_key);
      (2, map (fun d -> Flush d) bool);
      (1, return Epoch);
      (1, return Snapshot);
      (1, map (fun i -> Release i) small_nat);
    ]

(* Every reference the live roots account for: one per root held, one
   per edge and one per [Ptr] value of each node reachable from them,
   counted once per node however many parents share it. *)
let expected_refs t roots =
  let refs = Hashtbl.create 1024 and seen = Hashtbl.create 1024 in
  let ref_to b = Hashtbl.replace refs b (1 + Option.value ~default:0 (Hashtbl.find_opt refs b)) in
  let rec walk b =
    if not (Hashtbl.mem seen b) then begin
      Hashtbl.replace seen b ();
      match Btree.view t b with
      | Btree.Internal_view children ->
        List.iter ref_to children;
        List.iter walk children
      | Btree.Leaf_view entries ->
        List.iter (function _, Btree.Ptr p -> ref_to p | _, Btree.Imm _ -> ()) entries
    end
  in
  List.iter ref_to roots;
  List.iter walk roots;
  refs

let prop_btree_matches_map =
  QCheck.Test.make ~name:"btree agrees with a Map model across epochs, snapshots and flushes"
    ~count:(fuzz_count 30)
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_btree_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 60) btree_op_gen))
    (fun ops ->
      let dev =
        Aurora_device.Devarray.create ~clock:(Aurora_simtime.Clock.create ())
          ~profile:Aurora_device.Profile.optane_900p "index"
      in
      let alloc = Alloc.create ~first_block:2 () in
      let t = Btree.create ~dev ~alloc in
      let epoch = ref 1 in
      Btree.begin_epoch t !epoch;
      let root = ref (Btree.empty_root t) and model = ref Keys.empty in
      let snaps = ref [] in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let put k v =
        root := Btree.insert t ~root:!root ~key:k v;
        model := Keys.add k v !model
      in
      let value k ptr = if ptr then Btree.Ptr (Alloc.alloc alloc) else Btree.Imm (Int64.mul k 0x9E37_79B9L) in
      let range root ~lo ~hi =
        List.rev (Btree.fold_range t ~root ~lo ~hi ~init:[] ~f:(fun acc k v -> (k, v) :: acc))
      in
      let model_range m ~lo ~hi =
        List.filter (fun (k, _) -> Int64.compare lo k <= 0 && Int64.compare k hi <= 0) (Keys.bindings m)
      in
      let check_refs what =
        let refs = expected_refs t (!root :: List.map fst !snaps) in
        Hashtbl.iter
          (fun b n ->
            if Alloc.refcount alloc b <> n then
              fail "%s: block %d has refcount %d, the live roots account for %d" what b
                (Alloc.refcount alloc b) n)
          refs;
        if Alloc.live_blocks alloc <> Hashtbl.length refs then
          fail "%s: %d live blocks, the live roots reach %d" what (Alloc.live_blocks alloc)
            (Hashtbl.length refs)
      in
      (* A copy of the bytes each flush wrote, by block. Whatever the
         tree does afterwards, the device must still hold them: a leaf
         image handed to the device is never written again. *)
      let written = Hashtbl.create 64 in
      let tee writes =
        List.iter
          (fun (b, c) ->
            match c with
            | Aurora_device.Blockdev.Data s ->
              if Stream_node.encode (Stream_node.decode s) <> s then
                fail "node %d does not round-trip through the stream format" b;
              Hashtbl.replace written b (Bytes.to_string (Bytes.of_string s))
            | Aurora_device.Blockdev.Seed _ | Aurora_device.Blockdev.Zero ->
              fail "block %d is not a node" b)
          writes;
        []
      in
      let check_written what =
        Hashtbl.iter
          (fun b s ->
            match Aurora_device.Devarray.peek dev b with
            | Aurora_device.Blockdev.Data d when String.equal d s -> ()
            | _ -> fail "%s: block %d no longer holds the bytes last flushed to it" what b)
          written
      in
      List.iter
        (fun op ->
          (match op with
           | Put (k, ptr) -> put k (value k ptr)
           | Run (k, n, step) ->
             for i = 0 to n - 1 do
               let k = Int64.add k (Int64.of_int (i * step)) in
               put k (value k (i mod 5 = 0))
             done
           | Lookup k ->
             if Btree.find t ~root:!root k <> Keys.find_opt k !model then
               fail "find %Ld differs from the model" k
           | Range (lo, hi) ->
             if range !root ~lo ~hi <> model_range !model ~lo ~hi then
               fail "fold_range [%Ld, %Ld] differs from the model" lo hi
           | Flush drop ->
             Aurora_device.Devarray.await dev (Btree.flush_dirty ~tee t);
             if drop then Btree.drop_cache t
           | Epoch ->
             incr epoch;
             Btree.begin_epoch t !epoch
           | Snapshot ->
             Btree.retain_root t !root;
             snaps := (!root, !model) :: !snaps;
             incr epoch;
             Btree.begin_epoch t !epoch
           | Release i -> (
             match !snaps with
             | [] -> ()
             | l ->
               let i = i mod List.length l in
               Btree.release_root t (fst (List.nth l i));
               snaps := List.filteri (fun j _ -> j <> i) l));
          check_refs (pp_btree_op op);
          check_written (pp_btree_op op))
        ops;
      List.iter
        (fun (r, m) ->
          if range r ~lo:Int64.min_int ~hi:Int64.max_int <> Keys.bindings m then
            fail "snapshot %d no longer reads back as taken" r)
        ((!root, !model) :: !snaps);
      List.iter (fun (r, _) -> Btree.release_root t r) !snaps;
      Btree.release_root t !root;
      if Alloc.live_blocks alloc <> 0 then
        fail "%d blocks outlive every root" (Alloc.live_blocks alloc);
      true)

(* Encoded nodes, valid or damaged: truncated, a byte overwritten, a
   leaf's value tag set to 0-3, the count field replaced, or garbage
   appended. *)
let node_bytes_gen =
  let open QCheck.Gen in
  let value =
    map2 (fun ptr x -> if ptr then Btree.Ptr (Int64.to_int x land max_int) else Btree.Imm x) bool ui64
  in
  let leaf = map (fun es -> Stream_node.Leaf (Array.of_list es)) (list_size (int_range 0 201) (pair ui64 value)) in
  let internal =
    int_range 0 201 >>= fun n ->
    map2
      (fun keys children -> Stream_node.Internal (Array.of_list keys, Array.of_list children))
      (list_repeat n ui64) (list_repeat (n + 1) (int_bound 1_000_000))
  in
  let damage s =
    let len = String.length s in
    frequency
      [ (2, return s);
        (2, map (fun n -> String.sub s 0 (n mod (len + 1))) nat);
        (2, map2 (fun i c ->
              let b = Bytes.of_string s in
              Bytes.set b (i mod len) c;
              Bytes.to_string b) nat char);
        (1, map2 (fun i tag ->
              let b = Bytes.of_string s in
              let p = 9 + (17 * i) + 8 in
              if p < len then Bytes.set_uint8 b p tag;
              Bytes.to_string b) (int_bound 201) (int_bound 3));
        (1, map (fun n ->
              let b = Bytes.of_string s in
              Bytes.set_int64_le b 1 n;
              Bytes.to_string b) (oneof [ map Int64.of_int (int_range (-2) 210); ui64 ]));
        (1, map (fun g -> s ^ g) (string_size (int_range 1 16))) ]
  in
  frequency [ (3, leaf); (2, internal) ] >>= fun node -> damage (Stream_node.encode node)

let prop_node_decode_matches_stream =
  QCheck.Test.make ~name:"node decoding accepts and rejects what the stream reader does"
    ~count:(fuzz_count 500)
    (QCheck.make ~print:(fun s -> Printf.sprintf "%S" s) node_bytes_gen)
    (fun s ->
      let dev =
        Aurora_device.Devarray.create ~clock:(Aurora_simtime.Clock.create ())
          ~profile:Aurora_device.Profile.optane_900p "node"
      in
      let t = Btree.create ~dev ~alloc:(Alloc.create ~first_block:2 ()) in
      Aurora_device.Devarray.write dev 5 (Aurora_device.Blockdev.Data s);
      let got =
        match Btree.view t 5 with
        | Btree.Leaf_view entries -> Ok (`Leaf entries)
        | Btree.Internal_view children -> Ok (`Internal children)
        | exception Serial.Corrupt msg -> Error msg
      in
      let want =
        match Stream_node.decode s with
        | Stream_node.Leaf entries -> Ok (`Leaf (Array.to_list entries))
        | Stream_node.Internal (_, children) -> Ok (`Internal (Array.to_list children))
        | exception Serial.Corrupt msg -> Error msg
      in
      if got <> want then
        QCheck.Test.fail_reportf "%s, the stream reader: %s"
          (match got with Ok _ -> "decoded" | Error m -> m)
          (match want with Ok _ -> "decoded" | Error m -> m);
      true)

type dedup_op =
  | Add of int64
  | Add_again of int                   (* re-add an existing entry *)
  | Find of int64
  | Peek of int64
  | Free of int                        (* decref a live block to zero *)
  | Reset

let pp_dedup_op = function
  | Add h -> Printf.sprintf "Add %Lx" h
  | Add_again i -> Printf.sprintf "Add_again %d" i
  | Find h -> Printf.sprintf "Find %Lx" h
  | Peek h -> Printf.sprintf "Peek %Lx" h
  | Free i -> Printf.sprintf "Free %d" i
  | Reset -> "Reset"

(* A hash's home slot is its low bits. Most hashes share their low 20
   bits with many others, so at every table size up to 2^20 slots they
   share home slots and build long probe runs. Most of those runs start
   in the last slots and wrap past the end into the runs that start at
   slot 0. *)
let dedup_hash =
  QCheck.Gen.(
    frequency
      [ (4, map2 (fun hi lo -> Int64.logor (Int64.shift_left hi 20) (Int64.of_int lo))
              ui64 (oneofl [ 0; 1; 0xFFFFC; 0xFFFFD; 0xFFFFE; 0xFFFFF ]));
        (1, ui64) ])

let dedup_op_gen =
  let open QCheck.Gen in
  frequency
    [
      (8, map (fun h -> Add h) dedup_hash);
      (1, map (fun i -> Add_again i) small_nat);
      (3, map (fun h -> Find h) dedup_hash);
      (1, map (fun h -> Peek h) dedup_hash);
      (4, map (fun i -> Free i) small_nat);
      (1, map (fun () -> Reset) (return ()));
    ]

let prop_dedup_matches_hashtbl =
  QCheck.Test.make ~name:"dedup agrees with a Hashtbl model through adds, frees and resets"
    ~count:(fuzz_count 40)
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_dedup_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 1200) dedup_op_gen))
    (fun ops ->
      let alloc = Alloc.create ~first_block:0 () in
      let d = Dedup.create ~alloc in
      let by_hash = Hashtbl.create 64 and hash_of = Hashtbl.create 64 in
      let live = ref [] and hits = ref 0 and misses = ref 0 in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let lookup h = Option.value ~default:(-1) (Hashtbl.find_opt by_hash h) in
      List.iter
        (fun op ->
          (match op with
           | Add h -> (
             let b = Alloc.alloc alloc in
             live := b :: !live;
             match Hashtbl.find_opt by_hash h with
             | Some _ ->
               if (match Dedup.add d ~hash:h ~block:b with
                   | () -> true
                   | exception Invalid_argument _ -> false)
               then fail "a second block was accepted for hash %Lx" h
             | None ->
               Dedup.add d ~hash:h ~block:b;
               Hashtbl.replace by_hash h b;
               Hashtbl.replace hash_of b h)
           | Add_again i ->
             let entries = Hashtbl.fold (fun h b acc -> (h, b) :: acc) by_hash [] in
             if entries <> [] then begin
               let h, b = List.nth (List.sort compare entries) (i mod List.length entries) in
               Dedup.add d ~hash:h ~block:b
             end
           | Find h ->
             let want = lookup h in
             if want >= 0 then incr hits else incr misses;
             if Dedup.find d ~hash:h <> want then fail "find %Lx differs from the model" h
           | Peek h -> if Dedup.peek d ~hash:h <> lookup h then fail "peek %Lx differs" h
           | Free i -> (
             match !live with
             | [] -> ()
             | l ->
               let b = List.nth l (i mod List.length l) in
               live := List.filter (( <> ) b) l;
               Alloc.decref alloc b;
               (match Hashtbl.find_opt hash_of b with
                | Some h when lookup h = b -> Hashtbl.remove by_hash h
                | Some _ | None -> ());
               Hashtbl.remove hash_of b)
           | Reset ->
             Dedup.reset d;
             Hashtbl.reset by_hash;
             Hashtbl.reset hash_of);
          let what = pp_dedup_op op in
          if Dedup.entries d <> Hashtbl.length by_hash then
            fail "%s: %d entries, the model has %d" what (Dedup.entries d) (Hashtbl.length by_hash);
          Hashtbl.iter
            (fun h b -> if Dedup.peek d ~hash:h <> b then fail "%s: entry %Lx lost" what h)
            by_hash;
          if Dedup.hits d <> !hits || Dedup.misses d <> !misses then
            fail "%s: hit/miss counters differ" what)
        ops;
      true)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "fuzz"
    [
      ( "transparent-persistence",
        [ qt prop_random_history_survives_crash ] );
      ( "rollback-replay",
        [ qt prop_random_history_survives_rollback_replay ] );
      ( "crash-timing",
        [ qt prop_crash_at_random_instant_recovers_a_checkpoint ] );
      ( "pipelined-crash",
        [ qt prop_pipelined_crashes_expose_committed_prefix ] );
      ( "media-faults",
        [ qt prop_faulty_media_never_serves_wrong_data ] );
      ( "replication",
        [ qt prop_replication_converges_under_network_faults ] );
      ( "forensics",
        [ qt prop_forensics_postmortem_matches_ground_truth ] );
      ( "indexes",
        [ qt prop_btree_matches_map; qt prop_node_decode_matches_stream;
          qt prop_dedup_matches_hashtbl ] );
    ]
