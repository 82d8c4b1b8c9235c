(* Quickstart: transparent persistence in five steps.

   A counter application runs with no persistence code at all. Aurora
   checkpoints it 100x per second; the machine loses power; the
   application is restored and resumes counting exactly where the last
   checkpoint left it — "developers design programs as if they never
   crash".

   Run with: dune exec examples/quickstart.exe *)

open Aurora_simtime
open Aurora_vm
open Aurora_proc
open Aurora_sls

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* The application: bumps a counter in its memory forever. It knows
   nothing about persistence. *)
let () =
  Program.register ~name:"example/counter" (fun k p th ->
      let ctx = th.Thread.context in
      if ctx.Context.pc = 0 then begin
        let e = Syscall.mmap_anon k p ~npages:1 in
        Context.set_reg_int ctx 1 e.Vmmap.start_vpn;
        ctx.Context.pc <- 1;
        Program.Continue
      end
      else begin
        let count = Context.reg_int ctx 2 + 1 in
        Context.set_reg_int ctx 2 count;
        Syscall.mem_write k p ~vpn:(Context.reg_int ctx 1) ~offset:0
          ~value:(Int64.of_int count);
        Program.Continue
      end)

let counter_value p = Context.reg_int (Process.main_thread p).Thread.context 2

let () =
  say "== Aurora quickstart ==";
  (* 1. Boot a machine (kernel + Optane-class NVMe + object store). *)
  let m = Machine.create () in
  let k = m.Machine.kernel in

  (* 2. Run an ordinary application in a container. *)
  let c = Kernel.new_container k ~name:"demo" in
  let p = Kernel.spawn k ~container:c.Container.cid ~name:"counter"
      ~program:"example/counter" () in
  say "spawned pid %d running 'example/counter' (no persistence code in it)"
    p.Process.pid;

  (* 3. `sls persist`: transparent checkpoints every 10 ms. *)
  ignore (Machine.persist m (`Container c.Container.cid));
  Machine.run m (Duration.milliseconds 50);
  let stops = Metrics.histogram (Machine.metrics m) "ckpt.stop_us" in
  say "after 50 ms: counter = %d, %d checkpoints taken (mean stop time %.2f us)"
    (counter_value p) (Metrics.hist_count stops) (Metrics.hist_mean stops);

  (* 4. Power failure. Everything volatile is gone. *)
  let before_crash = counter_value p in
  Machine.crash m;
  say "power failure! (counter was %d; DRAM and kernel state are gone)"
    before_crash;

  (* 5. Boot, restore, resume. *)
  let m' = Machine.recover m in
  let g' = Machine.persist m' (`Container c.Container.cid) in
  let pids, breakdown = Machine.restore_group m' g' () in
  let p' = Kernel.proc_exn m'.Machine.kernel (List.hd pids) in
  say "restored pid %d in %.1f simulated us (objstore %.1f / metadata %.1f / memory %.1f)"
    p'.Process.pid
    (Duration.to_us breakdown.Types.total_latency)
    (Duration.to_us breakdown.Types.objstore_read)
    (Duration.to_us breakdown.Types.metadata_state)
    (Duration.to_us breakdown.Types.memory_state);
  say "counter resumed at %d (within one checkpoint interval of %d)"
    (counter_value p') before_crash;
  Machine.run m' (Duration.milliseconds 5);
  say "after 5 more ms it reached %d - oblivious to the interruption"
    (counter_value p')
