(* Serverless warm starts and scale-out (§4).

   One function runtime is initialized once and checkpointed; "scaling
   out amounts to repeatedly restoring an already checkpointed
   application". Instances share unmodified pages in the object store,
   so each additional function costs a small delta.

   Run with: dune exec examples/serverless_scaleout.exe *)

open Aurora_simtime
open Aurora_proc
open Aurora_objstore
open Aurora_sls
open Aurora_apps

let say fmt = Printf.printf (fmt ^^ "\n%!")

let () =
  say "== Serverless scale-out ==";
  let m = Machine.create () in
  let k = m.Machine.kernel in

  (* Cold start: boot the runtime and let it initialize. *)
  let c = Kernel.new_container k ~name:"runtime" in
  let cold_start_begin = Machine.now m in
  let inst = Serverless.spawn k ~container:c.Container.cid (Serverless.default_config ()) in
  ignore (Scheduler.run_until_idle k);
  let cold_start = Duration.sub (Machine.now m) cold_start_begin in
  say "cold start (runtime init): %.1f us" (Duration.to_us cold_start);

  (* Checkpoint the initialized instance: the warm-start image. *)
  let g = Machine.persist m (`Container c.Container.cid) in
  let b = Machine.checkpoint_now m g () in
  Store.wait_durable m.Machine.disk_store b.Types.durable_at;
  say "initialized image checkpointed (generation %d)" b.Types.gen;

  (* Warm starts: restore a clone per invocation. *)
  say "";
  say "%6s %18s %14s" "clone" "restore (us)" "handled";
  let restore_stats = Stats.create () in
  for i = 1 to 10 do
    let pids, breakdown = Machine.clone_group m g () in
    Stats.add_duration restore_stats breakdown.Types.total_latency;
    match Serverless.wire_restored k ~func_pid:(List.hd pids) with
    | None -> failwith "clone vanished"
    | Some clone ->
      Serverless.invoke k clone ~id:i;
      ignore (Scheduler.run_until_idle k);
      say "%6d %18.1f %14d" i
        (Duration.to_us breakdown.Types.total_latency)
        (Serverless.invocations clone.Serverless.func)
  done;
  say "";
  say "warm-start restore: %s (vs %.1f us cold start)"
    (Format.asprintf "%a" Stats.pp_summary restore_stats)
    (Duration.to_us cold_start);

  (* Density: a different function checkpoints into the same store and
     costs only its delta - the runtime pages dedup away. *)
  let before = (Store.stats m.Machine.disk_store).Store.live_blocks in
  let c2 = Kernel.new_container k ~name:"runtime2" in
  let inst2 =
    Serverless.spawn k ~container:c2.Container.cid
      (Serverless.default_config ~func_id:1 ())
  in
  ignore inst2;
  ignore (Scheduler.run_until_idle k);
  let g2 = Machine.persist m (`Container c2.Container.cid) in
  ignore (Machine.checkpoint_now m g2 ());
  let st = Store.stats m.Machine.disk_store in
  say "a second (different) function checkpointed: +%d blocks over %d - only its"
    (st.Store.live_blocks - before) before;
  say "delta is new ('machines could potentially hold billions of functions');";
  say "dedup hits so far: %d" st.Store.dedup_hits;
  ignore inst
