(* The flight recorder and its forensics: ring bounds, serialization
   round-trips, every sealed format rejecting any bit flip, truncation
   or trailing byte, black-box mark lifecycle, the black box surviving
   a power failure, the post-mortem naming exactly the epochs a
   mid-pipeline crash aborted (pipeline window >= 2, with a hot
   standby attached), and the correlation ids that let `sls timeline`
   line the standby's durable generations up against the primary's
   ring. *)

open Aurora_simtime
open Aurora_vm
open Aurora_proc
open Aurora_objstore
open Aurora_sls

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let () =
  Program.register ~name:"forensics/parked" (fun _ _ _ ->
      Program.Block Thread.Wait_forever)

(* ------------------------------------------------------------------ *)
(* Ring semantics                                                      *)
(* ------------------------------------------------------------------ *)

let test_ring_bounds () =
  let clock = Clock.create () in
  let r = Recorder.create clock in
  check_int "capacity" 256 Recorder.capacity;
  for i = 1 to 268 do
    Recorder.log r ~gen:i ~kind:"test.tick" (Printf.sprintf "tick %d" i)
  done;
  check_int "occupancy bounded" 256 (Recorder.occupancy r);
  check_int "dropped counted" 12 (Recorder.dropped r);
  let evs = Recorder.events r in
  check_int "events retained" 256 (List.length evs);
  (* The retained window is the newest 256, oldest first, seqs monotone. *)
  check_int "newest survives" 268
    (List.nth evs 255).Recorder.ev_gen;
  check_int "oldest retained" 13 (List.hd evs).Recorder.ev_gen;
  List.iteri
    (fun i ev ->
      if i > 0 then
        check_bool "seq monotone" true
          (ev.Recorder.ev_seq > (List.nth evs (i - 1)).Recorder.ev_seq))
    evs

let test_export_import_roundtrip () =
  let clock = Clock.create () in
  let r = Recorder.create clock in
  Recorder.note_capture r ~gen:1 ~pgid:0 ~stop_us:120.;
  Recorder.note_retire r ~gen:1;
  Recorder.set_repl_attached r true;
  Recorder.note_ship r ~gen:2 ~corr:"s1-g2" ~outcome:"acked";
  Recorder.note_ack r ~gen:2 ~corr:"s1-g2";
  Recorder.note_ship r ~gen:3 ~corr:"s1-g3" ~outcome:"timeout";
  Recorder.mark_inflight r ~gen:4 ~pgid:0;
  Recorder.note_transition r ~subsystem:"repl" "session degraded";
  Recorder.log r ~gen:4
    ~attrs:[ ("pgid", "0"); ("detail", "a, b = c") ]
    ~kind:"test.attrs" "an event with attributes";
  Recorder.set_crash_reason r "test crash";
  let blob = Recorder.export r in
  let r2 = Recorder.create clock in
  (match Recorder.import_into r2 blob with
   | Ok () -> ()
   | Error e -> Alcotest.failf "import failed: %s" e);
  check_int "events round-trip" (List.length (Recorder.events r))
    (List.length (Recorder.events r2));
  check_bool "crash reason round-trips" true
    (Recorder.crash_reason r2 = Some "test crash");
  check_bool "repl flag round-trips" true (Recorder.repl_attached r2);
  check_bool "ack horizon round-trips" true (Recorder.acked_gen r2 = Some 2);
  check_bool "shipped-unacked round-trips" true
    (Recorder.shipped_unacked r2 = [ 3 ]);
  check_bool "capture marks round-trip" true
    (List.map (fun m -> m.Recorder.cm_gen) (Recorder.captures r2)
     = List.map (fun m -> m.Recorder.cm_gen) (Recorder.captures r));
  (* The blobs agree event-for-event. *)
  List.iter2
    (fun a b ->
      check_int "seq" a.Recorder.ev_seq b.Recorder.ev_seq;
      check_bool "kind" true (a.Recorder.ev_kind = b.Recorder.ev_kind);
      check_bool "attrs" true (a.Recorder.ev_attrs = b.Recorder.ev_attrs))
    (Recorder.events r) (Recorder.events r2)

let test_mark_lifecycle () =
  let clock = Clock.create () in
  let r = Recorder.create clock in
  Recorder.mark_inflight r ~gen:7 ~pgid:3;
  check_int "mark added" 1 (List.length (Recorder.captures r));
  check_int "no ring event for a tentative mark" 0 (Recorder.occupancy r);
  Recorder.mark_inflight r ~gen:7 ~pgid:3;
  check_int "re-mark dedups" 1 (List.length (Recorder.captures r));
  Recorder.note_capture r ~gen:7 ~pgid:3 ~stop_us:100.;
  check_int "commit logs the ring event" 1 (Recorder.occupancy r);
  check_int "commit refreshes, not duplicates" 1
    (List.length (Recorder.captures r));
  Recorder.unmark r ~gen:9;
  check_int "unmark of an unknown gen is a no-op" 1
    (List.length (Recorder.captures r));
  Recorder.unmark r ~gen:7;
  check_int "aborted epoch's mark retracted" 0
    (List.length (Recorder.captures r))

let test_blackbox_roundtrip_and_adoption () =
  let clock = Clock.create () in
  let r = Recorder.create clock in
  Recorder.mark_inflight r ~gen:4 ~pgid:0;
  Recorder.mark_inflight r ~gen:5 ~pgid:0;
  Recorder.set_repl_attached r true;
  Recorder.note_ack r ~gen:2 ~corr:"s1-g2";
  Recorder.note_ship r ~gen:4 ~corr:"s1-g4" ~outcome:"timeout";
  let blob = Recorder.export_blackbox r in
  let bb =
    match Recorder.import_blackbox blob with
    | Ok bb -> bb
    | Error e -> Alcotest.failf "blackbox import: %s" e
  in
  check_bool "marks round-trip" true
    (List.map (fun m -> m.Recorder.cm_gen) bb.Recorder.bb_captures = [ 4; 5 ]);
  check_bool "repl flag" true bb.Recorder.bb_repl;
  check_int "ack horizon" 2 bb.Recorder.bb_acked_gen;
  check_bool "shipped" true (bb.Recorder.bb_shipped = [ 4 ]);
  (* Adoption merges what the ring missed: the on-device box is one
     epoch ahead of the stored ring. *)
  let r2 = Recorder.create clock in
  Recorder.mark_inflight r2 ~gen:5 ~pgid:0;
  Recorder.adopt_blackbox r2 bb;
  check_bool "adopted the missing mark" true
    (List.exists
       (fun m -> m.Recorder.cm_gen = 4)
       (Recorder.captures r2));
  check_bool "no duplicate for the shared mark" true
    (List.length
       (List.filter (fun m -> m.Recorder.cm_gen = 5) (Recorder.captures r2))
     = 1);
  check_bool "adopted the repl flag" true (Recorder.repl_attached r2);
  check_bool "adopted the ack horizon" true (Recorder.acked_gen r2 = Some 2)

(* ------------------------------------------------------------------ *)
(* Machine-level forensics                                             *)
(* ------------------------------------------------------------------ *)

(* A process with [npages] mapped and every page dirtied: big enough
   flushes that a checkpoint epoch stays in flight for milliseconds of
   simulated time on a single-stripe device. *)
let spawn_dirty m ~npages =
  let k = m.Machine.kernel in
  let c = Kernel.new_container k ~name:"forensics" in
  let p =
    Kernel.spawn k ~container:c.Container.cid ~name:"app"
      ~program:"forensics/parked" ()
  in
  let e = Syscall.mmap_anon k p ~npages in
  (c, p, e)

let dirty_all m p e =
  let k = m.Machine.kernel in
  for i = 0 to e.Vmmap.npages - 1 do
    Syscall.mem_write k p ~vpn:(e.Vmmap.start_vpn + i) ~offset:0
      ~value:(Int64.of_int (Duration.to_ns (Machine.now m) + i))
  done

(* The checkpoint path logs two events per generation, a capture and a
   retire, and nothing else: the ring's 256 slots then hold 128
   checkpoints of history. *)
let test_checkpoint_events () =
  let m = Machine.create () in
  let c, p, e = spawn_dirty m ~npages:16 in
  let g =
    Machine.persist m ~interval:(Duration.seconds 10)
      (`Container c.Container.cid)
  in
  let gens =
    List.init 5 (fun _ ->
        dirty_all m p e;
        let b = Machine.checkpoint_now m g () in
        Machine.run m (Duration.milliseconds 1);
        b.Types.gen)
  in
  Machine.drain_storage m;
  let evs = Recorder.events (Machine.recorder m) in
  let count kind gen =
    List.length
      (List.filter
         (fun ev -> ev.Recorder.ev_kind = kind && ev.Recorder.ev_gen = gen)
         evs)
  in
  List.iter
    (fun gen ->
      check_int (Printf.sprintf "one capture of gen %d" gen) 1
        (count "ckpt.capture" gen);
      check_int (Printf.sprintf "one retire of gen %d" gen) 1
        (count "ckpt.retire" gen))
    gens;
  Alcotest.(check (list string))
    "no other event kind" [ "ckpt.capture"; "ckpt.retire" ]
    (List.sort_uniq String.compare
       (List.map (fun ev -> ev.Recorder.ev_kind) evs));
  check_int "two events per checkpoint" (2 * List.length gens)
    (Recorder.occupancy (Machine.recorder m))

let test_blackbox_survives_crash () =
  let m = Machine.create ~stripes:2 () in
  let c, p, e = spawn_dirty m ~npages:32 in
  ignore p;
  let g =
    Machine.persist m ~interval:(Duration.milliseconds 1)
      (`Container c.Container.cid)
  in
  dirty_all m p e;
  ignore (Machine.checkpoint_now m g ());
  Machine.run m (Duration.milliseconds 3);
  Machine.drain_storage m;
  Machine.crash m;
  let m' = Machine.recover m in
  (* The store's black-box slot survived and carries the marks. *)
  (match Store.read_blackbox m'.Machine.disk_store with
   | None -> Alcotest.fail "no black box on the reopened store"
   | Some blob -> (
     match Recorder.import_blackbox blob with
     | Error e -> Alcotest.failf "recovered black box unreadable: %s" e
     | Ok bb ->
       check_bool "black box names the captures" true
         (bb.Recorder.bb_captures <> [])));
  (* A clean (fully drained) crash: postmortem present, nothing
     pending, no crash reason. *)
  match Machine.postmortem m' with
  | None -> Alcotest.fail "no postmortem after recovery"
  | Some pm ->
    check_bool "nothing pending after a drained crash" true
      (pm.Machine.pm_pending_epochs = []);
    check_bool "no crash reason" true (pm.Machine.pm_crash_reason = None);
    check_bool "ring recovered from the tip" true
      (pm.Machine.pm_recovered_gen = Store.latest m'.Machine.disk_store);
    check_bool "ring carries events" true (pm.Machine.pm_events <> [])

(* The ISSUE's acceptance scenario: pipeline window >= 2, a hot
   standby on a lossy link, power failure with TWO epochs in flight.
   The post-mortem must name exactly the committed-but-not-durable
   generations and exactly the generations the standby never
   acknowledged — both checked against ground truth computed outside
   the machine. *)
let test_acceptance_mid_pipeline_crash_with_standby () =
  let open Aurora_device in
  (* The default optane profile has a power-protected write cache
     (volatile_cache = false), so Store.commit queues the epoch flush
     asynchronously instead of paying a synchronous device flush —
     durability genuinely lags the commit, which is the whole point of
     this scenario. A NAND profile would not do: its volatile cache
     forces a sync flush on every commit and nothing can be in flight. *)
  let m = Machine.create ~stripes:1 ~max_inflight_ckpts:3 () in
  m.Machine.history_window <- 1_000;
  let c, p, e = spawn_dirty m ~npages:4096 in
  let g =
    Machine.persist m ~interval:(Duration.seconds 10)
      (`Container c.Container.cid)
  in
  let faults = Netlink.fault_plan ~seed:11L ~drop:0.05 () in
  let repl = Machine.attach_standby m ~faults g in
  (* A durable, replicated base generation. *)
  dirty_all m p e;
  ignore (Machine.checkpoint_now m g ~mode:`Full ());
  Machine.drain_storage m;
  let acked = Replica.acked_gen repl in
  check_bool "base generation acked by the standby" true (acked <> None);
  (* The session dies with the network (detached here); the recorder
     keeps the replication flag and the ack horizon, exactly as after
     a primary reboot. Without auto-ship stretching simulated time,
     the two full captures below stay in flight: each queues a
     4096-page flush behind the other on the single stripe, the
     capture itself stops the world for only tens of microseconds
     (no dirtying in between — Full mode recaptures every page), and
     window 3 admits both without blocking. *)
  Machine.detach_standby m;
  dirty_all m p e;
  ignore (Machine.checkpoint_now m g ~mode:`Full ());
  ignore (Machine.checkpoint_now m g ~mode:`Full ());
  Machine.run m (Duration.microseconds 30);
  (* Ground truth, computed before the lights go out. *)
  let store = m.Machine.disk_store in
  let committed = List.sort Int.compare (Store.generations store) in
  let at_crash = Machine.now m in
  let lost =
    List.filter
      (fun gn ->
        match Store.gen_durable_at store gn with
        | Some d -> Duration.(d > at_crash)
        | None -> true)
      committed
  in
  let unacked_truth =
    match acked with
    | None -> committed
    | Some a -> List.filter (fun gn -> gn > a) committed
  in
  check_bool "scenario sanity: >= 2 epochs in flight" true
    (List.length lost >= 2);
  Machine.crash m;
  let m' = Machine.recover m in
  let pm =
    match Machine.postmortem m' with
    | Some pm -> pm
    | None -> Alcotest.fail "no postmortem after mid-pipeline crash"
  in
  let show l = String.concat "," (List.map string_of_int l) in
  (* Exact pending epochs. *)
  let pending =
    List.sort Int.compare
      (List.map (fun mk -> mk.Recorder.cm_gen) pm.Machine.pm_pending_epochs)
  in
  if pending <> lost then
    Alcotest.failf "pending [%s] but ground truth lost [%s]" (show pending)
      (show lost);
  (* Exact unacked generations. *)
  let unacked = List.sort Int.compare pm.Machine.pm_unacked_gens in
  if unacked <> unacked_truth then
    Alcotest.failf "unacked [%s] but ground truth [%s]" (show unacked)
      (show unacked_truth);
  (* The crash reason names the count. *)
  (match pm.Machine.pm_crash_reason with
   | Some reason ->
     check_bool "reason is an unclean shutdown" true
       (String.length reason >= 16
        && String.sub reason 0 16 = "unclean shutdown")
   | None -> Alcotest.fail "no crash reason despite pending epochs");
  (* The recovered ring is the committed prefix's newest, and carries
     no checkpoint event from a lost epoch. *)
  let tip =
    match Store.latest m'.Machine.disk_store with Some gn -> gn | None -> 0
  in
  check_bool "ring from the tip" true (pm.Machine.pm_recovered_gen = Some tip);
  List.iter
    (fun ev ->
      if
        ev.Recorder.ev_gen > tip
        && String.length ev.Recorder.ev_kind >= 5
        && String.sub ev.Recorder.ev_kind 0 5 = "ckpt."
      then
        Alcotest.failf "ring leaked %s for lost gen %d" ev.Recorder.ev_kind
          ev.Recorder.ev_gen)
    pm.Machine.pm_events

let test_correlation_ids_match () =
  let m = Machine.create ~stripes:2 () in
  let c, p, e = spawn_dirty m ~npages:16 in
  let g =
    Machine.persist m ~interval:(Duration.seconds 10)
      (`Container c.Container.cid)
  in
  let repl = Machine.attach_standby m g in
  dirty_all m p e;
  ignore (Machine.checkpoint_now m g ());
  Machine.run m (Duration.milliseconds 1);
  dirty_all m p e;
  ignore (Machine.checkpoint_now m g ());
  Machine.drain_storage m;
  let named = Store.named (Replica.standby_store repl) in
  let mapped =
    List.filter_map
      (fun (name, _sgen) ->
        match Replica.parse_repl_gen_name name with
        | Some pgen -> Some (name, pgen)
        | None -> None)
      named
  in
  check_bool "standby names replicated generations" true (mapped <> []);
  let ring = Recorder.events (Machine.recorder m) in
  List.iter
    (fun (name, pgen) ->
      (* Every durable standby name carries the session's correlation
         id for that primary generation... *)
      let corr =
        match Replica.parse_repl_corr name with
        | Some c -> c
        | None -> Alcotest.failf "standby name %s carries no corr id" name
      in
      check_bool "corr id is the session's" true
        (corr = Replica.corr_id repl ~gen:pgen);
      (* ...and the primary's ring logged a ship/ack under the same
         id, which is what `sls timeline` joins on. *)
      check_bool
        (Printf.sprintf "primary ring has a corr-tagged event for gen %d" pgen)
        true
        (List.exists
           (fun ev ->
             (ev.Recorder.ev_kind = "repl.ship"
              || ev.Recorder.ev_kind = "repl.ack")
             && ev.Recorder.ev_gen = pgen
             && List.mem_assoc "corr" ev.Recorder.ev_attrs
             && List.assoc "corr" ev.Recorder.ev_attrs = corr)
           ring))
    mapped

(* A ship driven through [Replica.ship] directly, not by the machine's
   auto-ship, still logs into the machine's recorder: the ring's ack
   event and the black box's ack horizon. *)
let test_direct_ship_logged () =
  let m = Machine.create () in
  let c, p, e = spawn_dirty m ~npages:8 in
  let g =
    Machine.persist m ~interval:(Duration.seconds 10)
      (`Container c.Container.cid)
  in
  dirty_all m p e;
  let gen = (Machine.checkpoint_now m g ()).Types.gen in
  let repl = Machine.attach_standby m g in
  let r = Replica.ship repl ~gen in
  check_bool "shipped and acked" true (r.Replica.sh_outcome = `Acked);
  let rec_ = Machine.recorder m in
  check_bool "ack horizon advanced" true (Recorder.acked_gen rec_ = Some gen);
  check_bool "ring logged the ack" true
    (List.exists
       (fun ev -> ev.Recorder.ev_kind = "repl.ack" && ev.Recorder.ev_gen = gen)
       (Recorder.events rec_))

let test_recorder_gauges () =
  let m = Machine.create () in
  let c, p, e = spawn_dirty m ~npages:8 in
  let g =
    Machine.persist m ~interval:(Duration.milliseconds 1)
      (`Container c.Container.cid)
  in
  dirty_all m p e;
  ignore (Machine.checkpoint_now m g ());
  Machine.sync_metrics m;
  let mm = Machine.metrics m in
  let gauge name =
    match Metrics.find mm name with
    | Some (Metrics.Gauge v) -> v
    | _ -> Alcotest.failf "gauge %s missing" name
  in
  check_bool "capacity gauge" true (gauge "recorder.capacity" > 0.);
  check_bool "occupancy gauge tracks the ring" true
    (int_of_float (gauge "recorder.occupancy")
     = Recorder.occupancy (Machine.recorder m));
  check_bool "dropped gauge" true (gauge "recorder.dropped" >= 0.)

(* ------------------------------------------------------------------ *)
(* Sealed formats                                                      *)
(* ------------------------------------------------------------------ *)

(* What decoding a possibly damaged blob gave: the original value,
   some other value, or the format's typed rejection. *)
type verdict = Same | Other | Rejected

let flip_bit s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (i mod 8))));
  Bytes.unsafe_to_string b

(* A round trip, then every damage a file, a device or a wire can do:
   a one-bit flip at each byte, each truncation and one trailing byte.
   Each must be rejected with the format's typed error — never an
   exception, never a wrong value accepted. *)
let check_sealed (name, blob, decode) =
  let verdict what s =
    match decode s with
    | v -> v
    | exception e -> Alcotest.failf "%s: %s raised %s" name what (Printexc.to_string e)
  in
  let rejected what s =
    match verdict what s with
    | Rejected -> ()
    | Same | Other -> Alcotest.failf "%s: %s accepted" name what
  in
  check_bool (name ^ " round-trips") true (verdict "the intact blob" blob = Same);
  for i = 0 to String.length blob - 1 do
    rejected (Printf.sprintf "a bit flipped at byte %d" i) (flip_bit blob i)
  done;
  for n = 0 to String.length blob - 1 do
    rejected (Printf.sprintf "a truncation to %d bytes" n) (String.sub blob 0 n)
  done;
  rejected "a trailing byte" (blob ^ "\000")

(* Every sealed format, each through the entry point that reads it. *)
let test_corrupt_blob_rejected () =
  let open Aurora_device in
  let clock = Clock.create () in
  let seal =
    let magic = "AURORA-TEST-v1" and payload = "a payload\000with a nul" in
    ( "Serial.seal", Serial.seal ~magic payload,
      fun s ->
        match Serial.unseal ~magic s with
        | Ok p -> if p = payload then Same else Other
        | Error _ -> Rejected )
  in
  let r = Recorder.create clock in
  for i = 1 to 5 do
    Recorder.log r ~gen:i ~attrs:[ ("i", string_of_int i) ] ~kind:"test.tick" "tick"
  done;
  Recorder.mark_inflight r ~gen:6 ~pgid:0;
  Recorder.set_repl_attached r true;
  Recorder.note_ack r ~gen:4 ~corr:"s1-g4";
  Recorder.note_ship r ~gen:5 ~corr:"s1-g5" ~outcome:"timeout";
  Recorder.set_crash_reason r "test crash";
  let ring =
    let blob = Recorder.export r in
    ( "recorder ring", blob,
      fun s ->
        let victim = Recorder.create clock in
        Recorder.log victim ~kind:"test.keep" "must survive a failed import";
        match Recorder.import_into victim s with
        | Ok () -> if Recorder.export victim = blob then Same else Other
        | Error _ ->
          check_bool "a failed import leaves the ring untouched" true
            (List.map (fun e -> e.Recorder.ev_kind) (Recorder.events victim)
             = [ "test.keep" ]);
          Rejected )
  in
  let blackbox =
    let expected =
      { Recorder.bb_at = Clock.now clock; bb_captures = Recorder.captures r;
        bb_repl = true; bb_acked_gen = 4; bb_shipped = [ 5 ] }
    in
    ( "black box", Recorder.export_blackbox r,
      fun s ->
        match Recorder.import_blackbox s with
        | Ok bb -> if bb = expected then Same else Other
        | Error _ -> Rejected )
  in
  (* One committed generation: its superblock lands in slot 1, and
     slot 0 is cleared so recovery has no older superblock to fall
     back to. The black box's first write lands in its slot 3. *)
  let dev = Devarray.create ~stripes:1 ~clock ~profile:Profile.optane_900p "sealed" in
  let store = Store.format ~dev () in
  ignore (Store.begin_generation store ());
  Store.put_record store ~oid:1 "record";
  let gen, _ = Store.commit store () in
  Store.write_blackbox store "summary";
  Store.wait_all_durable store;
  Devarray.write dev 0 Blockdev.Zero;
  let block b =
    match Devarray.read dev b with
    | Blockdev.Data s -> s
    | _ -> Alcotest.failf "block %d holds no sealed record" b
  in
  let superblock =
    ( "superblock", block 1,
      fun s ->
        Devarray.write dev 1 (Blockdev.Data s);
        match Store.open_ ~dev with
        | Ok t ->
          if Store.generations t = [ gen ] && Store.read_record t gen ~oid:1 = Some "record"
          then Same
          else Other
        | Error Store.No_superblock -> Rejected
        | Error e -> Alcotest.failf "superblock: %s" (Store.describe_error e) )
  in
  let bbox_slot =
    ( "black-box slot", block 3,
      fun s ->
        Devarray.write dev 3 (Blockdev.Data s);
        match Store.read_blackbox store with
        | Some p -> if p = "summary" then Same else Other
        | None -> Rejected )
  in
  let image =
    let m = Machine.create () in
    let c, p, e = spawn_dirty m ~npages:1 in
    dirty_all m p e;
    let g = Machine.persist m (`Container c.Container.cid) in
    let b = Machine.checkpoint_now m g () in
    let pgid = g.Types.pgid in
    let image = Sendrecv.export m.Machine.disk_store ~gen:b.Types.gen ~pgid () in
    let dst =
      Store.format ~dev:(Devarray.create ~clock ~profile:Profile.optane_900p "dst") ()
    in
    ( "image", image,
      fun s ->
        match Sendrecv.import dst s with
        | gen, _ -> if Sendrecv.export dst ~gen ~pgid () = image then Same else Other
        | exception Restore.Error (Restore.Bad_image _) -> Rejected )
  in
  List.iter check_sealed [ seal; ring; blackbox; superblock; bbox_slot; image ]

let () =
  Alcotest.run "forensics"
    [
      ( "recorder",
        [
          Alcotest.test_case "ring bounds and drop counting" `Quick
            test_ring_bounds;
          Alcotest.test_case "export/import round-trip" `Quick
            test_export_import_roundtrip;
          Alcotest.test_case "corrupt blobs rejected, state untouched" `Quick
            test_corrupt_blob_rejected;
          Alcotest.test_case "capture-mark lifecycle" `Quick
            test_mark_lifecycle;
          Alcotest.test_case "black-box round-trip and adoption" `Quick
            test_blackbox_roundtrip_and_adoption;
          Alcotest.test_case "a checkpoint logs a capture and a retire" `Quick
            test_checkpoint_events;
        ] );
      ( "postmortem",
        [
          Alcotest.test_case "black box survives a power failure" `Quick
            test_blackbox_survives_crash;
          Alcotest.test_case
            "mid-pipeline crash: exact pending + unacked (window >= 2)" `Quick
            test_acceptance_mid_pipeline_crash_with_standby;
          Alcotest.test_case "correlation ids join primary and standby" `Quick
            test_correlation_ids_match;
          Alcotest.test_case "direct ship logged in the recorder" `Quick
            test_direct_ship_logged;
          Alcotest.test_case "recorder gauges in the registry" `Quick
            test_recorder_gauges;
        ] );
    ]
