open Aurora_vm
open Aurora_posix
open Aurora_proc
open Aurora_objstore

let sls_checkpoint machine g ?name () =
  (Machine.checkpoint_now machine g ?name ()).Types.gen

let sls_restore machine g ?gen ?policy () =
  fst (Machine.restore_group machine g ?gen ?policy ())

let sls_rollback machine g =
  match g.Types.last_gen with
  | None -> invalid_arg "sls_rollback: group was never checkpointed"
  | Some gen ->
    let pids = fst (Machine.restore_group machine g ~gen ()) in
    (* Notify the application: register 15 of every restored thread is
       set, so speculative code paths can take the conservative
       route. *)
    List.iter
      (fun pid ->
        match Kernel.proc machine.Machine.kernel pid with
        | Some p ->
          List.iter
            (fun th -> Context.set_reg th.Thread.context 15 1L)
            p.Process.threads
        | None -> ())
      pids;
    pids

let sls_barrier _machine g = Ntlog.barrier g

let sls_ntflush machine g data =
  ignore machine;
  Ntlog.flush g data

let sls_barrier_until machine at =
  Store.wait_durable machine.Machine.disk_store at

let sls_log_read machine g =
  ignore machine;
  Ntlog.read g

let sls_log_truncate machine g =
  ignore machine;
  Ntlog.truncate g

let sls_mctl machine p entry ~persist =
  ignore machine;
  if not (List.memq entry (Vmmap.entries p.Process.vm)) then
    invalid_arg "sls_mctl: entry does not belong to this process";
  entry.Vmmap.persisted <- persist

let sls_fdctl (p : Process.t) ~fd ~ext_consistency =
  match Fd.get p.Process.fdtable fd with
  | Some ofd -> ofd.Fd.flags.Fd.ext_consistency <- ext_consistency
  | None -> invalid_arg (Printf.sprintf "sls_fdctl: bad descriptor %d" fd)
