(* Live migration over the network (`sls send` / `sls recv`, §3.1).

   A running application is checkpointed, shipped over a simulated
   10 GbE link to a second machine, and resumed there mid-computation.
   A follow-up incremental shipment shows the delta-size advantage.

   Run with: dune exec examples/live_migration.exe *)

open Aurora_simtime
open Aurora_device
open Aurora_vm
open Aurora_proc
open Aurora_sls

let say fmt = Printf.printf (fmt ^^ "\n%!")

let () =
  Program.register ~name:"example/worker" (fun k p th ->
      let ctx = th.Thread.context in
      if ctx.Context.pc = 0 then begin
        (* 1 MiB of state, of which only a small working set is hot. *)
        let e = Syscall.mmap_anon k p ~npages:256 in
        Context.set_reg_int ctx 1 e.Vmmap.start_vpn;
        for i = 0 to 255 do
          Syscall.mem_write k p ~vpn:(e.Vmmap.start_vpn + i) ~offset:0
            ~value:(Int64.of_int i)
        done;
        ctx.Context.pc <- 1;
        Program.Continue
      end
      else begin
        let step = Context.reg_int ctx 2 + 1 in
        Context.set_reg_int ctx 2 step;
        Syscall.mem_write k p
          ~vpn:(Context.reg_int ctx 1 + (step mod 8))
          ~offset:0 ~value:(Int64.of_int step);
        Program.Continue
      end)

let steps p = Context.reg_int (Process.main_thread p).Thread.context 2

let () =
  say "== Live migration ==";
  let src = Machine.create () in
  let k = src.Machine.kernel in
  let c = Kernel.new_container k ~name:"job" in
  let p = Kernel.spawn k ~container:c.Container.cid ~name:"worker"
      ~program:"example/worker" () in
  let g = Machine.persist src (`Container c.Container.cid) in
  Machine.run src (Duration.milliseconds 2);
  say "source machine: worker at step %d" (steps p);

  (* Checkpoint and ship the image. *)
  let b = Machine.checkpoint_now src g () in
  let link = Netlink.create ~clock:(Machine.clock src) ~profile:Profile.net_10gbe () in
  let image =
    Sendrecv.export src.Machine.disk_store ~gen:b.Types.gen ~pgid:g.Types.pgid ()
  in
  let arrival = Netlink.send link ~from_:`A image in
  say "shipped %d KiB image over 10 GbE (arrives %.1f us later)"
    (String.length image / 1024)
    (Duration.to_us (Duration.sub arrival (Machine.now src)));

  (* The destination machine receives and resumes it. *)
  let dst = Machine.create () in
  Clock.advance_to (Machine.clock dst) arrival;
  Clock.advance_to (Machine.clock src) arrival;
  (match Netlink.recv link ~side:`B with
   | None -> failwith "image lost in transit"
   | Some image ->
     let gen, durable = Sendrecv.import dst.Machine.disk_store image in
     Aurora_objstore.Store.wait_durable dst.Machine.disk_store durable;
     dst.Machine.kernel.Kernel.fs <-
       Aurora_slsfs.Slsfs.restore_fs dst.Machine.disk_store gen;
     let g' = Machine.persist dst (`Container c.Container.cid) in
     let pids, breakdown = Machine.restore_group dst g' ~gen () in
     let p' = Kernel.proc_exn dst.Machine.kernel (List.hd pids) in
     say "destination: restored pid %d at step %d in %.1f us"
       p'.Process.pid (steps p') (Duration.to_us breakdown.Types.total_latency);
     Machine.run dst (Duration.milliseconds 2);
     say "destination: worker continued to step %d" (steps p'));

  (* Incremental feed: the next shipment is a delta. *)
  Machine.run src (Duration.milliseconds 1);
  let b2 = Machine.checkpoint_now src g () in
  let delta =
    Sendrecv.export src.Machine.disk_store ~gen:b2.Types.gen ~pgid:g.Types.pgid
      ~base:b.Types.gen ()
  in
  say "";
  say "continuous replication: next increment is %d KiB (vs %d KiB full) - %s"
    (String.length delta / 1024)
    (String.length image / 1024)
    "'continually feed incremental checkpoints to a remote host'"
