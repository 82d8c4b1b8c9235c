(* Tests for checkpoint provenance: per-process/per-object attribution
   (rows must sum exactly to the checkpoint breakdown), per-generation
   storage provenance in the object store (live and reopened-from-disk
   paths), the generation inspector (gen_report / crosscheck / diff),
   dedup savings accounting, the one quantile estimator, and the
   metrics snapshot auto-sync hook. *)

open Aurora_simtime
open Aurora_device
open Aurora_objstore
open Aurora_proc
open Aurora_sls

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* One page, as a one-page column put. *)
let put_page s ~oid ~pindex ~seed = Store.put_pages s ~oid [| (pindex, seed) |]

let mkdev ?(profile = Profile.optane_900p) ?stripes () =
  let clock = Clock.create () in
  (clock, Devarray.create ?stripes ~clock ~profile "store")

(* ------------------------------------------------------------------ *)
(* Machine-level attribution                                           *)
(* ------------------------------------------------------------------ *)

let machine_with_app ?storage_blocks () =
  let m = Machine.create ?storage_blocks () in
  let k = m.Machine.kernel in
  let c = Kernel.new_container k ~name:"app" in
  let p =
    Kernel.spawn k ~container:c.Container.cid ~name:"worker"
      ~program:"aurora/kv-client" ()
  in
  let e = Syscall.mmap_anon k p ~npages:32 in
  for i = 0 to 31 do
    Syscall.mem_write k p ~vpn:(e.Aurora_vm.Vmmap.start_vpn + i) ~offset:0
      ~value:(Int64.of_int (100 + i))
  done;
  let g = Machine.persist m (`Container c.Container.cid) in
  (m, g, p, e)

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let assert_sums_exact (a : Types.ckpt_attribution) (b : Types.ckpt_breakdown) =
  check_int "object pages sum to the total" a.Types.at_pages_total
    (sum (fun (o : Types.obj_attribution) -> o.Types.a_pages) a.Types.at_objects);
  check_int "process pages sum to the total" a.Types.at_pages_total
    (sum (fun (p : Types.proc_attribution) -> p.Types.p_pages) a.Types.at_procs);
  check_int "process bytes sum to the total" a.Types.at_bytes_total
    (sum (fun (p : Types.proc_attribution) -> p.Types.p_bytes) a.Types.at_procs);
  check_int "attribution total matches the breakdown" b.Types.pages_captured
    a.Types.at_pages_total

let test_full_attribution_sums () =
  let m, g, p, _ = machine_with_app () in
  let b = Machine.checkpoint_now m g ~mode:`Full () in
  let a =
    match Machine.last_attribution g with
    | Some a -> a
    | None -> Alcotest.fail "checkpoint produced no attribution"
  in
  assert_sums_exact a b;
  check_bool "captured something" true (a.Types.at_pages_total >= 32);
  check_int "attribution tagged with the generation" b.Types.gen a.Types.at_gen;
  (* The worker owns its anonymous object; the shared pid-0 row absorbs
     the manifest and group metadata so the byte sum stays exact. *)
  check_bool "worker has a row" true
    (List.exists
       (fun (r : Types.proc_attribution) -> r.Types.p_pid = p.Process.pid)
       a.Types.at_procs);
  (match
     List.find_opt (fun (r : Types.proc_attribution) -> r.Types.p_pid = 0) a.Types.at_procs
   with
   | Some shared ->
     check_bool "shared row carries metadata bytes" true (shared.Types.p_bytes > 0)
   | None -> Alcotest.fail "no shared (pid 0) row");
  List.iter
    (fun (o : Types.obj_attribution) ->
      check_bool "chain depth positive" true (o.Types.a_chain_depth >= 1))
    a.Types.at_objects;
  (* top_procs orders by pages then bytes, and truncates. *)
  (match Types.top_procs ~k:1 a with
   | [ top ] ->
     List.iter
       (fun (r : Types.proc_attribution) ->
         check_bool "top row dominates" true
           (top.Types.p_pages > r.Types.p_pages
            || (top.Types.p_pages = r.Types.p_pages && top.Types.p_bytes >= r.Types.p_bytes)
            || top.Types.p_pid = r.Types.p_pid))
       a.Types.at_procs
   | _ -> Alcotest.fail "top_procs ~k:1 must return one row")

let test_incremental_attribution_and_cow () =
  let m, g, p, e = machine_with_app () in
  let k = m.Machine.kernel in
  let full = Machine.checkpoint_now m g ~mode:`Full () in
  Store.wait_durable m.Machine.disk_store full.Types.durable_at;
  (* Dirty exactly 5 pages; each write breaks the checkpoint's COW
     protection on its page. *)
  for i = 0 to 4 do
    Syscall.mem_write k p ~vpn:(e.Aurora_vm.Vmmap.start_vpn + i) ~offset:1
      ~value:(Int64.of_int (900 + i))
  done;
  let b = Machine.checkpoint_now m g ~mode:`Incremental () in
  let a = Option.get (Machine.last_attribution g) in
  assert_sums_exact a b;
  check_int "only the dirtied pages are attributed" 5 a.Types.at_pages_total;
  check_bool "cow breaks recorded" true
    (sum (fun (o : Types.obj_attribution) -> o.Types.a_cow_breaks) a.Types.at_objects >= 1);
  (* The counter resets: a second checkpoint with no writes sees none. *)
  let b2 = Machine.checkpoint_now m g ~mode:`Incremental () in
  let a2 = Option.get (Machine.last_attribution g) in
  assert_sums_exact a2 b2;
  check_int "clean checkpoint attributes no pages" 0 a2.Types.at_pages_total;
  check_int "cow counter reset after collection" 0
    (sum (fun (o : Types.obj_attribution) -> o.Types.a_cow_breaks) a2.Types.at_objects)

let test_degraded_attribution_sums () =
  (* A tiny device: repeated full checkpoints of fresh content fill it,
     and the degraded (aborted-generation) path must still produce
     attribution rows that sum to its breakdown. History collection is
     off, so no generation frees the blocks the next one needs. *)
  let m, g, p, e = machine_with_app ~storage_blocks:512 () in
  m.Machine.history_window <- 1_000;
  let k = m.Machine.kernel in
  let degraded = ref None in
  (try
     for round = 1 to 60 do
       for i = 0 to 31 do
         Syscall.mem_write k p ~vpn:(e.Aurora_vm.Vmmap.start_vpn + i) ~offset:2
           ~value:(Int64.of_int ((round * 64) + i))
       done;
       let b = Machine.checkpoint_now m g ~mode:`Full () in
       match b.Types.status with
       | `Degraded _ ->
         degraded := Some b;
         raise Exit
       | `Ok -> ()
     done
   with Exit -> ());
  match !degraded with
  | None -> Alcotest.fail "device never filled (raise the round count?)"
  | Some b ->
    let a = Option.get (Machine.last_attribution g) in
    assert_sums_exact a b

(* ------------------------------------------------------------------ *)
(* Store provenance: accumulation, reports, persistence, diff          *)
(* ------------------------------------------------------------------ *)

let test_store_provenance_counts () =
  let _, dev = mkdev () in
  let s = Store.format ~dev () in
  let g = Store.begin_generation s () in
  Store.put_record s ~oid:7 "hello";
  put_page s ~oid:1 ~pindex:0 ~seed:41L;
  (* Identical content: the second write dedups against the first. *)
  put_page s ~oid:1 ~pindex:1 ~seed:41L;
  let _, durable = Store.commit s () in
  Store.wait_durable s durable;
  let p =
    match Store.gen_provenance s g with
    | Some p -> p
    | None -> Alcotest.fail "committed generation has no provenance"
  in
  check_int "pages counted" 2 p.Store.pv_pages;
  check_int "records counted" 1 p.Store.pv_records;
  (* Payload blocks: the record's chunk plus ONE page block — the
     second page dedup'd against the first. *)
  check_int "record chunk + one shared page block" 2 p.Store.pv_data_blocks;
  check_int "dedup hit counted" 1 p.Store.pv_dedup_hits;
  check_int "dedup saved the page payload" Blockdev.block_size
    p.Store.pv_dedup_saved_bytes;
  check_int "logical bytes = payloads + record" ((2 * Blockdev.block_size) + 5)
    p.Store.pv_logical_bytes;
  check_bool "meta blocks flushed at commit" true (p.Store.pv_meta_blocks >= 1);
  check_bool "commit blocks include superblock + gentable" true
    (p.Store.pv_commit_blocks >= 2);
  check_bool "physical bytes positive" true (Store.bytes_written p > 0);
  check_int "stats expose the savings" Blockdev.block_size
    (Store.stats s).Store.dedup_bytes_saved;
  check_bool "aborted generations drop their provenance" true
    (let g2 = Store.begin_generation s () in
     put_page s ~oid:1 ~pindex:9 ~seed:99L;
     Store.abort_generation s;
     Store.gen_provenance s g2 = None)

let two_gen_store () =
  let _, dev = mkdev () in
  let s = Store.format ~dev () in
  let g1 = Store.begin_generation s () in
  for i = 0 to 9 do
    put_page s ~oid:1 ~pindex:i ~seed:(Int64.of_int (1000 + i))
  done;
  ignore (Store.commit s ());
  let g2 = Store.begin_generation s ~base:g1 () in
  for i = 0 to 1 do
    put_page s ~oid:1 ~pindex:i ~seed:(Int64.of_int (2000 + i))
  done;
  let _, durable = Store.commit s () in
  Store.wait_durable s durable;
  (dev, s, g1, g2)

let test_gen_report_and_crosscheck () =
  let _, s, g1, g2 = two_gen_store () in
  let r =
    match Store.gen_report s g2 with
    | Some r -> r
    | None -> Alcotest.fail "no report for a committed generation"
  in
  check_int "all ten pages reachable" 10 r.Store.r_page_entries;
  check_int "ten data blocks (all contents distinct)" 10 r.Store.r_data_blocks;
  check_int "logical bytes are the page payloads" (10 * Blockdev.block_size)
    r.Store.r_logical_bytes;
  check_int "exclusive + shared tile the reachable set"
    (r.Store.r_meta_blocks + r.Store.r_data_blocks)
    (r.Store.r_exclusive_blocks + r.Store.r_shared_blocks);
  (* The 8 unchanged data blocks are shared with g1; the 2 rewritten
     ones are exclusive to g2. *)
  check_bool "incremental shares most data blocks" true (r.Store.r_shared_blocks >= 8);
  check_bool "rewritten pages are exclusive" true (r.Store.r_exclusive_blocks >= 2);
  let r1 = Option.get (Store.gen_report s g1) in
  check_int "old generation still fully reachable" 10 r1.Store.r_page_entries;
  let x = Store.crosscheck s in
  check_bool "reachable within 1% of live" true x.Store.x_within_1pct;
  check_int "in fact exactly equal" x.Store.x_live_blocks x.Store.x_reachable_blocks;
  check_bool "unknown generation has no report" true (Store.gen_report s 999 = None)

let test_provenance_survives_reopen () =
  let dev, s, _g1, g2 = two_gen_store () in
  let before = Option.get (Store.gen_provenance s g2) in
  let report_before = Option.get (Store.gen_report s g2) in
  (* Power failure: only durable device state survives; the reopened
     store must report identical provenance (gentable) and an identical
     walked report (offline inspection). *)
  Devarray.crash dev;
  let s2 =
    match Store.open_ ~dev with
    | Ok s2 -> s2
    | Error e -> Alcotest.failf "reopen failed: %s" (Store.describe_error e)
  in
  let after = Option.get (Store.gen_provenance s2 g2) in
  check_int "pages persisted" before.Store.pv_pages after.Store.pv_pages;
  check_int "data blocks persisted" before.Store.pv_data_blocks
    after.Store.pv_data_blocks;
  check_int "logical bytes persisted" before.Store.pv_logical_bytes
    after.Store.pv_logical_bytes;
  check_int "dedup hits persisted" before.Store.pv_dedup_hits after.Store.pv_dedup_hits;
  check_int "commit blocks persisted" before.Store.pv_commit_blocks
    after.Store.pv_commit_blocks;
  let report_after = Option.get (Store.gen_report s2 g2) in
  check_int "walked data blocks identical" report_before.Store.r_data_blocks
    report_after.Store.r_data_blocks;
  check_int "walked page entries identical" report_before.Store.r_page_entries
    report_after.Store.r_page_entries;
  let x = Store.crosscheck s2 in
  check_bool "offline crosscheck holds" true x.Store.x_within_1pct

let test_gen_diff () =
  let _, s, g1, g2 = two_gen_store () in
  let d = Store.diff s ~from_gen:g1 ~to_gen:g2 in
  check_int "no objects appeared" 0 (List.length d.Store.df_oids_added);
  check_int "no objects vanished" 0 (List.length d.Store.df_oids_removed);
  (match d.Store.df_changed with
   | [ c ] ->
     check_int "the changed object" 1 c.Store.d_oid;
     check_int "two pages changed" 2 c.Store.d_pages_changed;
     check_int "none added" 0 c.Store.d_pages_added;
     check_int "none removed" 0 c.Store.d_pages_removed
   | l -> Alcotest.failf "expected one changed object, got %d" (List.length l));
  check_int "page deltas aggregate" 2 d.Store.df_pages_changed;
  check_int "no net payload growth" 0 d.Store.df_bytes_delta;
  check_bool "identical generations diff empty" true
    (let d0 = Store.diff s ~from_gen:g2 ~to_gen:g2 in
     d0.Store.df_changed = [] && d0.Store.df_pages_changed = 0);
  check_bool "unknown generation rejected" true
    (try
       ignore (Store.diff s ~from_gen:g1 ~to_gen:999);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Quantiles                                                           *)
(* ------------------------------------------------------------------ *)

(* Stats' percentile is nearest rank on the sorted sample: for 1..10
   and 1..4 the median is the upper middle. *)
let test_quantile_is_stats_percentile () =
  List.iter
    (fun (n, want) ->
      let stats = Stats.create () in
      for i = 1 to n do
        Stats.add stats (float_of_int i)
      done;
      Alcotest.(check (float 0.))
        (Printf.sprintf "p50 of 1..%d" n) want (Stats.percentile stats 50.))
    [ (10, 6.); (4, 3.) ]

(* ------------------------------------------------------------------ *)
(* Metrics auto-sync                                                   *)
(* ------------------------------------------------------------------ *)

let test_on_snapshot_hook () =
  let m = Metrics.create (Clock.create ()) in
  let g = Metrics.gauge m "derived" in
  let runs = ref 0 in
  Metrics.on_snapshot m (fun () ->
      incr runs;
      Metrics.set_int g !runs;
      (* A hook that itself exports must not recurse into the hooks. *)
      ignore (Metrics.snapshot m));
  (match Metrics.find m "derived" with
   | Some (Metrics.Gauge v) -> Alcotest.(check (float 1e-9)) "hook ran" 1.0 v
   | _ -> Alcotest.fail "gauge missing");
  ignore (Metrics.snapshot m);
  check_int "one run per export, no recursion" 2 !runs;
  ignore (Metrics.to_json m);
  check_int "to_json also syncs" 3 !runs

let test_machine_stats_never_stale () =
  let m, g, _, _ = machine_with_app () in
  ignore (Machine.checkpoint_now m g ());
  (* No explicit sync_metrics call: the snapshot hook folds the device,
     store and dedup state in on its own. *)
  let mm = Machine.metrics m in
  (match Metrics.find mm "dev.nvme.writes" with
   | Some (Metrics.Gauge v) -> check_bool "device writes folded in" true (v > 0.0)
   | _ -> Alcotest.fail "dev.nvme.writes gauge missing");
  check_bool "store occupancy gauge present" true
    (Metrics.find mm "store.nvme.live_blocks" <> None);
  check_bool "dedup savings gauge present" true
    (Metrics.find mm "store.nvme.dedup.bytes_saved" <> None)

let () =
  Alcotest.run "attrib"
    [
      ( "attribution",
        [
          Alcotest.test_case "full checkpoint sums exactly" `Quick
            test_full_attribution_sums;
          Alcotest.test_case "incremental + cow breaks" `Quick
            test_incremental_attribution_and_cow;
          Alcotest.test_case "degraded checkpoint still sums" `Quick
            test_degraded_attribution_sums;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "write-time accumulation" `Quick
            test_store_provenance_counts;
          Alcotest.test_case "gen_report + crosscheck" `Quick
            test_gen_report_and_crosscheck;
          Alcotest.test_case "survives reopen" `Quick test_provenance_survives_reopen;
          Alcotest.test_case "generation diff" `Quick test_gen_diff;
        ] );
      ( "stats",
        [
          Alcotest.test_case "quantile is Stats.percentile" `Quick
            test_quantile_is_stats_percentile;
        ] );
      ( "autosync",
        [
          Alcotest.test_case "on_snapshot hook" `Quick test_on_snapshot_hook;
          Alcotest.test_case "machine stats never stale" `Quick
            test_machine_stats_never_stale;
        ] );
    ]
