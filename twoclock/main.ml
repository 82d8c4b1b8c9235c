(* The two-clock benchmark: one process runs one named workload against
   the simulated Aurora machine and reports both clocks.

   - The simulated clock (stop times, restore and read latencies, write
     amplification) repeats bit for bit for a given seed: those metrics
     pin the reproduction.
   - The wall clock and the OCaml allocator measure the harness itself:
     how long, and how many words, the simulator needs to produce them.

   The benchmark reaches the system only through public functions of the
   aurora libraries and times those calls from the outside. Every
   workload runs a fixed number of identical rounds, sized from
   [--seconds] alone, so the simulated work (and the words it allocates)
   never depends on how fast the host is. With [--trace 1] every call is
   wrapped in a monotonic-clock and [Gc.counters] read, and layers the
   workload only reaches through [Machine] are replayed into their own
   public functions after the measured phase and its checks.

   Usage:
     main.exe --workload bulk-capture|steady-epochs|restore-fanout
              --seed N --seconds S --trace 0|1

   The last line of standard output is one JSON object; see README.md. *)

open Aurora_simtime
open Aurora_device
open Aurora_vm
open Aurora_proc
open Aurora_objstore
open Aurora_sls
open Aurora_apps

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let workloads = [ "bulk-capture"; "steady-epochs"; "restore-fanout" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload bulk-capture|steady-epochs|restore-fanout \
     --seed N --seconds S --trace 0|1";
  exit 2

let workload, seed, seconds, trace =
  let w = ref None and s = ref None and sec = ref None and tr = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> w := Some v; go rest
    | "--seed" :: v :: rest -> s := Int64.of_string_opt v; go rest
    | "--seconds" :: v :: rest -> sec := int_of_string_opt v; go rest
    | "--trace" :: v :: rest -> tr := int_of_string_opt v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!w, !s, !sec, !tr) with
  | Some w, Some s, Some sec, Some tr
    when List.mem w workloads && sec >= 1 && (tr = 0 || tr = 1) ->
    (w, s, sec, tr = 1)
  | _ -> usage ()

(* ------------------------------------------------------------------ *)
(* The two clocks                                                      *)
(* ------------------------------------------------------------------ *)

let wall_ns () = Monotonic_clock.now ()
let since_ns t0 = Int64.to_float (Int64.sub (wall_ns ()) t0)

(* Words allocated so far: minor + major - promoted, the Gc's own
   definition of [allocated_bytes] in words. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let sim_us m = Duration.to_us (Machine.now m)

(* ------------------------------------------------------------------ *)
(* Per-layer accounting (traced runs only)                             *)
(* ------------------------------------------------------------------ *)

type acc = { mutable calls : int; mutable ns : float list; mutable words : float }

let tracing = ref false
let layers : (string, acc) Hashtbl.t = Hashtbl.create 32

let acc name =
  match Hashtbl.find_opt layers name with
  | Some a -> a
  | None ->
    let a = { calls = 0; ns = []; words = 0. } in
    Hashtbl.replace layers name a;
    a

(* Wrap one public call: a monotonic-clock read and a [Gc.counters] read
   on each side when tracing, nothing otherwise. The minor heap is
   emptied before each counter read, outside the timed interval: with a
   partly filled minor heap the counters are off by up to half of it,
   depending on GC timing. *)
let timed name f =
  if not !tracing then f ()
  else begin
    Gc.minor ();
    let w0 = alloc_words () in
    let t0 = wall_ns () in
    let r = f () in
    let dt = since_ns t0 in
    Gc.minor ();
    let dw = alloc_words () -. w0 in
    let a = acc name in
    a.calls <- a.calls + 1;
    a.ns <- dt :: a.ns;
    a.words <- a.words +. dw;
    r
  end

(* ------------------------------------------------------------------ *)
(* Samples and order statistics                                        *)
(* ------------------------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs =
  match xs with
  | [] -> Float.nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* The nearest-rank median of a sample set. *)
let p50 xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan else a.(((n + 1) / 2) - 1)

(* The highest percentile with at least ten samples beyond it: the
   eleventh-largest sample, at percentile (n - 10) / n. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 11 then (Float.nan, Float.nan, n)
  else (a.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n, n)

(* ------------------------------------------------------------------ *)
(* Outcome accounting                                                  *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0

let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "FAIL: %s\n%!" what
  end

(* Wall time spent in output checks is kept out of the measured phase. *)
let check_ns = ref 0.

let checking f =
  let t0 = wall_ns () in
  let r = f () in
  check_ns := !check_ns +. since_ns t0;
  r

(* ------------------------------------------------------------------ *)
(* Host-speed calibration                                              *)
(* ------------------------------------------------------------------ *)

(* On a shared host, contention for caches and memory slows whole runs
   by up to a quarter. A fixed reference kernel timed right after each
   measured interval slows with it, so wall times are reported rescaled
   to a host on which the kernel takes [calibration_ref_s]. The kernel
   is plain OCaml shaped like the simulator's hot paths: hash-table
   inserts and lookups that allocate and promote. *)
let calibration_ref_s = 0.1

let calibration_s () =
  let t0 = wall_ns () in
  let n = 1 lsl 17 in
  let h = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    Hashtbl.replace h (i * 40503) (Int64.of_int i, [ i ])
  done;
  let s = ref 0 in
  for i = 0 to n - 1 do
    match Hashtbl.find_opt h (i * 7919 mod n * 40503) with
    | Some (_, l) -> s := !s + List.length l
    | None -> ()
  done;
  ignore (Sys.opaque_identity !s);
  since_ns t0 /. 1e9

(* A wall time measured just before a calibration run, rescaled. *)
let calibrated t = t *. calibration_ref_s /. calibration_s ()

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let kv_mib = 256

(* Table 3's Redis process scaled to 256 MiB: the preloaded data region
   plus 68-72 small mappings, 28-32 descriptors and four threads. The
   mapping and descriptor counts are drawn from the seed, so the
   metadata half of every checkpoint and restore varies a little with
   it. *)
let kv_fixture rng ?stripes ?max_inflight ~spec () =
  let m = Machine.create ?stripes ?max_inflight_ckpts:max_inflight () in
  let k = m.Machine.kernel in
  let c = Kernel.new_container k ~name:"redis" in
  let nkeys = kv_mib * 1024 * 1024 / 8 in
  let cfg =
    { (Kvstore.default_config ~nkeys ()) with
      Kvstore.spec = spec ~nkeys;
      ops_per_step = 128;
      preload = true }
  in
  let p = Kvstore.spawn k ~container:c.Container.cid cfg in
  for _ = 1 to 68 + Prng.int rng 5 do
    ignore (Syscall.mmap_anon k p ~npages:(1 + Prng.int rng 4))
  done;
  Syscall.mkdir k p "/lib";
  for i = 1 to 28 + Prng.int rng 5 do
    ignore (Syscall.open_file k p ~create:true (Printf.sprintf "/lib/lib%d.so" i))
  done;
  for _ = 1 to 3 do
    ignore (Process.add_thread p ~program:"aurora/kv-client")
  done;
  (* One step executes the whole preload. *)
  ignore (Scheduler.step_all k);
  (m, c, p, cfg)

(* Seeded bench writes: every data page independently with probability
   [frac], one 8-byte store at a random slot. *)
let dirty_region rng k p cfg ~frac =
  let base = Kvstore.base_vpn p in
  for i = 0 to Kvstore.npages cfg - 1 do
    if Prng.float rng 1.0 < frac then
      Syscall.mem_write k p ~vpn:(base + i) ~offset:(Prng.int rng 512)
        ~value:(Prng.next_int64 rng)
  done

(* Order-sensitive hash of every mapped page of a process: the digest
   check for images that are not kvstores (the serverless function). *)
let proc_digest (p : Process.t) =
  List.fold_left
    (fun acc (e : Vmmap.entry) ->
      let acc = ref acc in
      for i = 0 to e.Vmmap.npages - 1 do
        let c = Vmmap.read p.Process.vm ~vpn:(e.Vmmap.start_vpn + i) in
        acc := Content.hash (Content.of_seed (Int64.add !acc (Content.hash c)))
      done;
      !acc)
    0L (Vmmap.entries p.Process.vm)

(* Set up [reps] times and keep the last fixture; the median calibrated
   time is the set-up time reported. Earlier fixtures are collected before the next
   one is built so the peak heap reflects one fixture. *)
let setup_s = ref Float.nan

let timed_setup ~reps build =
  let times = ref [] and last = ref None in
  for _ = 1 to reps do
    last := None;
    Gc.full_major ();
    let t0 = wall_ns () in
    let fx = build () in
    let dt = since_ns t0 /. 1e9 in
    times := calibrated dt :: !times;
    last := Some fx
  done;
  setup_s := median !times;
  Option.get !last

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

(* Metric lines, in print order: (name, value, unit). *)
let e2e : (string * float * string) list ref = ref []
let layer : (string * float * string) list ref = ref []
let put r name v u = r := !r @ [ (name, v, u) ]
let notes : string list ref = ref []
let note fmt = Printf.ksprintf (fun s -> notes := !notes @ [ s ]) fmt

(* Measured-phase clocks, per round: calibrated seconds with check time
   excluded, for untraced and (in a traced run) traced rounds, and the
   raw seconds of every round. *)
let round_wall = ref []
let round_wall_traced = ref []
let round_raw = ref []
let round_words = ref 0.

(* Rounds alternate traced / untraced in a traced run, so the tracing
   overhead is measured against the same run's own untraced rounds. *)
let run_rounds ~rounds f =
  for r = 1 to rounds do
    tracing := trace && r mod 2 = 1;
    let chk0 = !check_ns in
    (* Empty minor heap at both counter reads, as in [timed]. *)
    Gc.minor ();
    let w0 = alloc_words () in
    let t0 = wall_ns () in
    f r;
    let dt = (since_ns t0 -. (!check_ns -. chk0)) /. 1e9 in
    Gc.minor ();
    let dw = alloc_words () -. w0 in
    round_words := !round_words +. dw;
    round_raw := dt :: !round_raw;
    let dt = calibrated dt in
    if !tracing then round_wall_traced := dt :: !round_wall_traced
    else round_wall := dt :: !round_wall
  done;
  tracing := trace

let rounds_for ~nominal_s ~min_rounds =
  max min_rounds (int_of_float (Float.round (float_of_int seconds /. nominal_s)))

(* The samples behind the workload-independent end-to-end names: the
   headline simulated latency (checkpoint stop time, or restore/clone
   latency) and the foreground reads. *)
let headline = ref []
let read_samples = ref []

(* Latency pairs: median plus the tail, with its percentile and count. *)
let put_latency name xs =
  let t, pct, n = tail xs in
  put e2e (name ^ "_p50") (p50 xs) "us";
  put e2e (name ^ "_tail") t "us";
  note "%s_tail is p%.1f of %d samples" name pct n

(* ------------------------------------------------------------------ *)
(* Shared per-layer helpers                                            *)
(* ------------------------------------------------------------------ *)

(* Median wall time per call, words per call and call count of one
   traced call site. *)
let put_call_layer ~prefix name =
  let a = acc name in
  put layer (prefix ^ ".wall_ms") (median a.ns /. 1e6) "ms";
  if a.calls > 0 then
    put layer (prefix ^ ".kwords") (a.words /. float_of_int a.calls /. 1e3) "kwords";
  put layer (prefix ^ ".count") (float_of_int a.calls) "count"

let total_ms name =
  let a = acc name in
  List.fold_left ( +. ) 0. a.ns /. 1e6

(* A histogram's (sum, count), and its mean over the samples added
   since such a reading. *)
let hist_state m name =
  let h = Metrics.histogram (Machine.metrics m) name in
  (Metrics.hist_sum h, Metrics.hist_count h)

let hist_mean_since m name (s0, n0) =
  let s1, n1 = hist_state m name in
  if n1 = n0 then 0. else (s1 -. s0) /. float_of_int (n1 - n0)

let dev_snapshot dev = (Devarray.stats dev, Devarray.sched_stats dev)

(* Device counters gained between two snapshots (the measured phase). *)
let put_device_layer (s0, q0) (s1, q1) =
  put layer "device.commands"
    (float_of_int (s1.Blockdev.reads + s1.Blockdev.writes - s0.Blockdev.reads
                   - s0.Blockdev.writes)) "count";
  put layer "device.blocks_written"
    (float_of_int (s1.Blockdev.blocks_written - s0.Blockdev.blocks_written)) "count";
  put layer "device.blocks_read"
    (float_of_int (s1.Blockdev.blocks_read - s0.Blockdev.blocks_read)) "count";
  put layer "device.fg_wait_us" (q1.Iosched.s_fg_wait_us -. q0.Iosched.s_fg_wait_us) "us";
  put layer "device.fg_gap_fills"
    (float_of_int (q1.Iosched.s_fg_gap_fills - q0.Iosched.s_fg_gap_fills)) "count"

let put_store_layer store =
  let st = Store.stats store in
  let looks = st.Store.dedup_hits + st.Store.dedup_misses in
  put layer "objstore.dedup_hit_ratio"
    (if looks = 0 then 0. else float_of_int st.Store.dedup_hits /. float_of_int looks)
    "ratio"

let put_simtime_layer m =
  put layer "simtime.spans" (float_of_int (List.length (Span.spans (Machine.spans m)))) "count";
  put layer "simtime.spans_dropped" (float_of_int (Span.dropped (Machine.spans m))) "count";
  let r = Machine.recorder m in
  put layer "simtime.recorder_events"
    (float_of_int (Recorder.occupancy r + Recorder.dropped r)) "count"

(* The store oid holding the most pages of a generation: the kvstore's
   data region. *)
let data_object store gen =
  List.fold_left
    (fun (bo, bn) o ->
      let n = Store.page_count store gen ~oid:o in
      if n > bn then (o, n) else (bo, bn))
    (0, 0) (Store.oids store gen)

(* The newest generation's full page image, per store oid: what a Full
   checkpoint of the same state ingests. *)
let image_pages store gen =
  List.filter_map
    (fun oid ->
      let pairs =
        Store.fold_pages store gen ~oid ~init:[] ~f:(fun acc i s -> (i, s) :: acc)
      in
      if pairs = [] then None else Some (oid, Array.of_list (List.rev pairs)))
    (Store.oids store gen)

(* Replays into the object store's and B-tree's own public functions on
   a fresh device shaped like the machine's. *)
let replay_objstore store gen =
  let dev = Store.device store in
  let image = image_pages store gen in
  let pages = List.fold_left (fun n (_, a) -> n + Array.length a) 0 image in
  let fresh () =
    Devarray.create ~stripes:(Devarray.stripes dev) ~clock:(Clock.create ())
      ~profile:(Devarray.profile dev) "replay"
  in
  let s = Store.format ~dev:(fresh ()) () in
  ignore (Store.begin_generation s ());
  List.iter
    (fun (oid, pairs) -> timed "objstore.ingest" (fun () -> Store.put_pages s ~oid pairs))
    image;
  ignore (timed "objstore.commit" (fun () -> Store.commit s ()));
  timed "objstore.commit" (fun () -> Store.wait_all_durable s);
  let ing = acc "objstore.ingest" in
  let per_page x = x /. float_of_int (max 1 pages) in
  put layer "objstore.ingest.ns_per_page" (per_page (List.fold_left ( +. ) 0. ing.ns)) "ns";
  put layer "objstore.ingest.words_per_page" (per_page ing.words) "words";
  put layer "objstore.commit.wall_ms" (total_ms "objstore.commit") "ms";
  (* The same keys into a bare B-tree. *)
  let bdev = fresh () in
  let bt = Btree.create ~dev:bdev ~alloc:(Alloc.create ~first_block:16 ~stripes:(Devarray.stripes bdev) ()) in
  Btree.begin_epoch bt 1;
  let root = ref (Btree.empty_root bt) in
  timed "objstore.btree" (fun () ->
      List.iter
        (fun (oid, pairs) ->
          Array.iter
            (fun (i, sd) ->
              root := Btree.insert bt ~root:!root
                  ~key:(Int64.logor (Int64.shift_left (Int64.of_int oid) 32) (Int64.of_int i))
                  (Btree.Imm sd))
            pairs)
        image;
      ignore (Btree.flush_dirty bt));
  put layer "objstore.btree.insert_ns"
    (per_page (List.fold_left ( +. ) 0. (acc "objstore.btree").ns)) "ns"

let replay_lookup rng store gen ~oid ~npages =
  let n = 20_000 in
  let picks = Array.init n (fun _ -> Prng.int rng npages) in
  timed "objstore.lookup" (fun () ->
      Array.iter (fun i -> ignore (Store.peek_page store gen ~oid ~pindex:i)) picks);
  put layer "objstore.lookup_ns"
    (List.fold_left ( +. ) 0. (acc "objstore.lookup").ns /. float_of_int n) "ns"

(* [Vmobject.arm_for_checkpoint] over the process's objects, then the
   flusher's release; ns per resident page scanned. *)
let replay_arm (p : Process.t) ~mode =
  let pool = Vmmap.pool p.Process.vm in
  let objs = Vmmap.distinct_objects p.Process.vm in
  let resident = List.fold_left (fun n o -> n + Vmobject.resident_count o) 0 objs in
  let per = ref [] in
  for _ = 1 to 3 do
    let t0 = wall_ns () in
    let items = List.map (fun o -> Vmobject.arm_for_checkpoint o ~mode) objs in
    per := since_ns t0 /. float_of_int (max 1 resident) :: !per;
    List.iter (List.iter (Vmobject.release_flush_item ~pool)) items
  done;
  put layer "vm.arm.ns_per_page" (median !per) "ns"

let replay_serialize k g =
  for _ = 1 to 20 do
    ignore (timed "sls.serialize" (fun () -> Serialize.snapshot_metadata k g))
  done;
  put layer "sls.serialize.wall_ms" (median (acc "sls.serialize").ns /. 1e6) "ms"

(* Post-restore Zipf burst of [Syscall.mem_read] against a kvstore
   region; each read's simulated latency is one sample. *)
let burst_size = ref 1

let read_burst rng m p cfg ~reads ~samples =
  burst_size := reads;
  let k = m.Machine.kernel in
  let base = Kvstore.base_vpn p in
  let n = Kvstore.npages cfg in
  timed "proc.mem_read" (fun () ->
      for _ = 1 to reads do
        let page = Prng.zipf rng ~n ~theta:0.99 in
        let t0 = sim_us m in
        match Syscall.mem_read k p ~vpn:(base + page) ~offset:(Prng.int rng 512) with
        | _ ->
          check "mem_read" true;
          samples := (sim_us m -. t0) :: !samples
        | exception e ->
          check ("mem_read: " ^ Printexc.to_string e) false
      done)

let fault_counts (p : Process.t) =
  let f = Vmmap.faults p.Process.vm in
  (f.Vmmap.major, f.Vmmap.zero_fill + f.Vmmap.fork_cow + f.Vmmap.ckpt_cow)

let fsck_checks store =
  checking (fun () ->
      let r = Store.fsck store in
      check "Store.fsck_ok" (Store.fsck_ok r);
      List.iter (fun s -> Printf.eprintf "  fsck: %s\n" s) r.Store.problems;
      let x = Store.crosscheck store in
      check "Store.crosscheck within 1%" x.Store.x_within_1pct)

(* Per-checkpoint bookkeeping shared by the two checkpoint workloads. *)
type ckpt_samples = {
  mutable stops : float list;
  mutable lags : float list;
  mutable phys_bytes : float;
  mutable logical_bytes : float;
  mutable data_blocks : float list;
  mutable meta_blocks : float list;
  mutable mirror_blocks : float list;
  mutable commit_blocks : float list;
  mutable quiesce : float list;
  mutable metadata : float list;
  mutable cow_arm : float list;
  mutable pages : float list;
  mutable cow_breaks : int;
}

let new_ckpt_samples () =
  { stops = []; lags = []; phys_bytes = 0.; logical_bytes = 0.; data_blocks = [];
    meta_blocks = []; mirror_blocks = []; commit_blocks = []; quiesce = [];
    metadata = []; cow_arm = []; pages = []; cow_breaks = 0 }

let checkpoint cs m g ~mode =
  let b = timed "sls.checkpoint" (fun () -> Machine.checkpoint_now m g ~mode ()) in
  check "checkpoint committed" (b.Types.status = `Ok);
  let us = Duration.to_us in
  cs.stops <- us b.Types.stop_time :: cs.stops;
  cs.lags <- us (Duration.sub b.Types.durable_at b.Types.barrier_at) :: cs.lags;
  cs.quiesce <- us b.Types.quiesce :: cs.quiesce;
  cs.metadata <- us b.Types.metadata_copy :: cs.metadata;
  cs.cow_arm <- us b.Types.lazy_data_copy :: cs.cow_arm;
  cs.pages <- float_of_int b.Types.pages_captured :: cs.pages;
  (match Store.gen_provenance m.Machine.disk_store b.Types.gen with
   | Some pv ->
     cs.phys_bytes <- cs.phys_bytes +. float_of_int (Store.bytes_written pv);
     cs.logical_bytes <- cs.logical_bytes +. float_of_int pv.Store.pv_logical_bytes;
     cs.data_blocks <- float_of_int pv.Store.pv_data_blocks :: cs.data_blocks;
     cs.meta_blocks <- float_of_int pv.Store.pv_meta_blocks :: cs.meta_blocks;
     cs.mirror_blocks <- float_of_int pv.Store.pv_mirror_blocks :: cs.mirror_blocks;
     cs.commit_blocks <- float_of_int pv.Store.pv_commit_blocks :: cs.commit_blocks
   | None -> check "generation provenance present" false);
  (match Machine.last_attribution g with
   | Some at ->
     cs.cow_breaks <-
       List.fold_left (fun n o -> n + o.Types.a_cow_breaks) cs.cow_breaks at.Types.at_objects
   | None -> ());
  b

let put_ckpt_e2e cs =
  headline := cs.stops;
  put_latency "stop_us" cs.stops;
  put e2e "durable_lag_us_p50" (p50 cs.lags) "us";
  put e2e "write_amp" (cs.phys_bytes /. cs.logical_bytes) "ratio"

let put_ckpt_layer m cs =
  put_call_layer ~prefix:"sls.checkpoint" "sls.checkpoint";
  put layer "sls.ckpt.quiesce_us" (mean cs.quiesce) "us";
  put layer "sls.ckpt.metadata_copy_us" (mean cs.metadata) "us";
  put layer "sls.ckpt.cow_arm_us" (mean cs.cow_arm) "us";
  put layer "sls.ckpt.pages_per_epoch" (mean cs.pages) "pages";
  put layer "objstore.data_blocks" (mean cs.data_blocks) "blocks";
  put layer "objstore.meta_blocks" (mean cs.meta_blocks) "blocks";
  put layer "objstore.mirror_blocks" (mean cs.mirror_blocks) "blocks";
  put layer "objstore.commit_blocks" (mean cs.commit_blocks) "blocks";
  put layer "vm.cow_breaks" (float_of_int cs.cow_breaks) "count";
  (match Machine.critical_path m with
   | Ok r ->
     let pct pred =
       List.fold_left
         (fun s sg -> if pred sg.Critpath.sg_name then s +. sg.Critpath.sg_pct else s)
         0. r.Critpath.cp_segments
     in
     put layer "sls.critpath.flush_pct"
       (pct (fun n -> String.length n >= 5 && String.sub n 0 5 = "flush")) "%";
     put layer "sls.critpath.serialize_pct" (pct (String.equal "serialize")) "%"
   | Error e -> note "no critical path: %s" e)

(* ------------------------------------------------------------------ *)
(* bulk-capture                                                        *)
(* ------------------------------------------------------------------ *)

(* A write-heavy 256 MiB kvstore on one synchronous stripe. Each round
   is one Full and two Incremental checkpoints, each preceded by seeded
   writes dirtying 14% of the pages and drained before the next. The
   workload ends with crash -> recover -> restore -> digest check. *)
let bulk_capture rng =
  let m, c, p, cfg, g =
    let fseed = Prng.next_int64 rng in
    timed_setup ~reps:5 (fun () ->
        let m, c, p, cfg =
          kv_fixture (Prng.create ~seed:fseed) ~stripes:1 ~max_inflight:1
            ~spec:Workload.write_heavy ()
        in
        let g = Machine.persist m ~interval:(Duration.seconds 3600) (`Container c.Container.cid) in
        ignore (Machine.checkpoint_now m g ~mode:`Full ());
        Machine.drain_storage m;
        (m, c, p, cfg, g))
  in
  let k = m.Machine.kernel in
  let store = m.Machine.disk_store in
  let cs = new_ckpt_samples () in
  let dev0 = dev_snapshot m.Machine.nvme in
  let flush0 = hist_state m "store.nvme.flush_us" in
  let last_digest = ref 0L in
  let rounds = rounds_for ~nominal_s:0.85 ~min_rounds:4 in
  run_rounds ~rounds (fun _ ->
      List.iter
        (fun mode ->
          timed "proc.run" (fun () -> dirty_region rng k p cfg ~frac:0.14);
          ignore (checkpoint cs m g ~mode);
          timed "device.drain" (fun () -> Machine.drain_storage m);
          last_digest := checking (fun () -> Kvstore.region_digest k p cfg))
        [ `Full; `Incremental; `Incremental ]);
  let dev1 = dev_snapshot m.Machine.nvme in
  let flush_us = hist_mean_since m "store.nvme.flush_us" flush0 in
  put_ckpt_e2e cs;
  (* Crash with undurable bench writes on top of the last checkpoint:
     recovery must expose exactly that checkpoint's image. *)
  dirty_region rng k p cfg ~frac:0.01;
  let expected = !last_digest in
  Machine.crash m;
  let m' = Machine.recover m in
  let g' =
    match List.find_opt (fun g' -> g'.Types.pgid = g.Types.pgid) m'.Machine.pgroups with
    | Some g' -> g'
    | None -> Machine.persist m' ~interval:(Duration.seconds 3600) (`Container c.Container.cid)
  in
  let reads = ref [] and restored = ref None in
  (match timed "sls.restore" (fun () -> Machine.restore_group m' g' ()) with
   | pid :: _, rb ->
     let p' = Kernel.proc_exn m'.Machine.kernel pid in
     restored := Some p';
     read_burst rng m' p' cfg ~reads:400 ~samples:reads;
     check "recovered image digest = last durable checkpoint"
       (checking (fun () -> Kvstore.region_digest m'.Machine.kernel p' cfg) = expected);
     note "recovery restore %.1f us" (Duration.to_us rb.Types.total_latency)
   | [], _ -> check "recovery restored a process" false
   | exception e -> check ("recovery restore: " ^ Printexc.to_string e) false);
  read_samples := !reads;
  put_latency "read_us" !reads;
  fsck_checks m'.Machine.disk_store;
  if trace then begin
    put_ckpt_layer m cs;
    put layer "objstore.flush_us" flush_us "us";
    put_call_layer ~prefix:"proc.run" "proc.run";
    put layer "device.drain.wall_ms" (median (acc "device.drain").ns /. 1e6) "ms";
    put_device_layer dev0 dev1;
    put_store_layer store;
    put_simtime_layer m;
    let store' = m'.Machine.disk_store in
    let gen = Option.get (Store.latest store') in
    replay_objstore store' gen;
    let oid, npages = data_object store' gen in
    replay_lookup rng store' gen ~oid ~npages;
    Option.iter (fun p' -> replay_arm p' ~mode:`Full) !restored;
    replay_serialize m'.Machine.kernel g'
  end

(* ------------------------------------------------------------------ *)
(* steady-epochs                                                       *)
(* ------------------------------------------------------------------ *)

let read_period = Duration.microseconds 230

(* A read-heavy 256 MiB kvstore checkpointed every 10 ms on four
   stripes with a pipeline window of two, plus an open-loop reader
   issuing one [Store.read_page] every 230 us against the newest
   committed generation. The bench drives the loop [Machine.run] would,
   so every call is timed; each round is ten epochs. *)
let steady_epochs rng =
  let m, p, g =
    let fseed = Prng.next_int64 rng in
    timed_setup ~reps:5 (fun () ->
        let m, c, p, _ =
          kv_fixture (Prng.create ~seed:fseed) ~stripes:4 ~max_inflight:2
            ~spec:Workload.read_heavy ()
        in
        let g = Machine.persist m (`Container c.Container.cid) in
        ignore (Machine.checkpoint_now m g ~mode:`Full ());
        Machine.drain_storage m;
        g.Types.next_ckpt_at <- Duration.add (Machine.now m) g.Types.interval;
        (m, p, g))
  in
  let k = m.Machine.kernel in
  let store = m.Machine.disk_store in
  let data_oid, npages = data_object store (Option.get (Store.latest store)) in
  let cs = new_ckpt_samples () in
  let reads = ref [] and late = ref [] in
  let next_read = ref (Duration.add (Machine.now m) read_period) in
  let dev0 = dev_snapshot m.Machine.nvme in
  let ops0 = Kvstore.ops_done p in
  let sim0 = sim_us m in
  let bp0 = hist_state m "ckpt.backpressure_us" in
  let rec0 = hist_state m "ckpt.recorder_us" in
  let flush0 = hist_state m "store.nvme.flush_us" in
  let read_one () =
    let due = !next_read in
    late := Duration.to_us (Duration.sub (Machine.now m) due) :: !late;
    let pindex = Prng.zipf rng ~n:npages ~theta:0.99 in
    (match Store.latest store with
     | Some gen -> (
       match timed "objstore.read" (fun () -> Store.read_page store gen ~oid:data_oid ~pindex) with
       | Some _ -> check "reader read_page" true
       | None -> check "reader read_page returned a page" false
       | exception e -> check ("reader read_page: " ^ Printexc.to_string e) false)
     | None -> check "reader found a committed generation" false);
    reads := Duration.to_us (Duration.sub (Machine.now m) due) :: !reads;
    next_read := Duration.add due read_period
  in
  let epoch = g.Types.interval in
  let rounds = rounds_for ~nominal_s:0.9 ~min_rounds:4 in
  run_rounds ~rounds (fun _ ->
      let deadline = Duration.add (Machine.now m) (Duration.scale epoch 10) in
      let rec loop () =
        timed "sls.retire" (fun () -> Machine.complete_due m);
        if Duration.(Machine.now m >= g.Types.next_ckpt_at) then begin
          ignore (checkpoint cs m g ~mode:`Incremental);
          g.Types.next_ckpt_at <- Duration.add (Machine.now m) epoch
        end;
        while Duration.(!next_read <= Machine.now m) do read_one () done;
        if Duration.(Machine.now m < deadline) then begin
          let horizon =
            List.fold_left Duration.min deadline [ g.Types.next_ckpt_at; !next_read ]
          in
          let horizon =
            match m.Machine.pending_ckpts with
            | pc :: _ -> Duration.min horizon pc.Types.pc_b.Types.durable_at
            | [] -> horizon
          in
          (match timed "proc.run" (fun () -> Scheduler.run k ~until:horizon) with
           | Scheduler.Deadline -> ()
           | Scheduler.Idle | Scheduler.All_exited ->
             Clock.advance_to (Machine.clock m) horizon);
          loop ()
        end
      in
      loop ());
  let dev1 = dev_snapshot m.Machine.nvme in
  let run_us = sim_us m -. sim0 in
  let backpressure_us = hist_mean_since m "ckpt.backpressure_us" bp0 in
  let recorder_us = hist_mean_since m "ckpt.recorder_us" rec0 in
  let flush_us = hist_mean_since m "store.nvme.flush_us" flush0 in
  let nckpt = float_of_int (List.length cs.stops) in
  put_ckpt_e2e cs;
  put e2e "ckpt_overhead_pct"
    (100. *. (List.fold_left ( +. ) 0. cs.stops +. (backpressure_us *. nckpt)) /. run_us) "%";
  note "bench.reader_late_us %.1f: generator lateness, mean" (mean !late);
  read_samples := !reads;
  put_latency "read_us" !reads;
  let ops = Kvstore.ops_done p - ops0 in
  timed "device.drain" (fun () -> Machine.drain_storage m);
  fsck_checks store;
  if trace then begin
    put_ckpt_layer m cs;
    put layer "sls.ckpt.backpressure_us" backpressure_us "us";
    put layer "sls.ckpt.recorder_us" recorder_us "us";
    put layer "sls.retire.wall_ms" (total_ms "sls.retire" /. float_of_int (acc "sls.checkpoint").calls) "ms";
    put layer "objstore.flush_us" flush_us "us";
    put layer "objstore.read.wall_us" (median (acc "objstore.read").ns /. 1e3) "us";
    put layer "objstore.read.count" (float_of_int (acc "objstore.read").calls) "count";
    put_call_layer ~prefix:"proc.run" "proc.run";
    put layer "proc.run.mwords" ((acc "proc.run").words /. 1e6) "Mwords";
    put layer "apps.kv_ops" (float_of_int ops) "count";
    put layer "device.drain.wall_ms" (median (acc "device.drain").ns /. 1e6) "ms";
    put_device_layer dev0 dev1;
    put_store_layer store;
    put_simtime_layer m;
    put layer "bench.reader_late_us" (mean !late) "us";
    let gen = Option.get (Store.latest store) in
    replay_objstore store gen;
    replay_lookup rng store gen ~oid:data_oid ~npages;
    replay_arm p ~mode:`Dirty_only;
    replay_serialize k g
  end

(* ------------------------------------------------------------------ *)
(* restore-fanout                                                      *)
(* ------------------------------------------------------------------ *)

(* One 256 MiB kvstore image and one serverless function image, both
   checkpointed durably in set-up. Each round restores the kvstore cold
   under Eager, Lazy and Lazy_prefetch, each followed by a seeded Zipf
   burst of [Syscall.mem_read], interleaved with two clones of the
   function image. The object store is only read. *)
let restore_fanout rng =
  let m, kv_g, sl_g, cfg, kv_digest, (sl_name, sl_digest) =
    let fseed = Prng.next_int64 rng in
    timed_setup ~reps:5 (fun () ->
        let frng = Prng.create ~seed:fseed in
        let m, c, p, cfg =
          kv_fixture frng ~spec:Workload.write_heavy ()
        in
        let k = m.Machine.kernel in
        dirty_region frng k p cfg ~frac:0.14;
        let fc = Kernel.new_container k ~name:"func" in
        let inst =
          Serverless.spawn k ~container:fc.Container.cid
            (Serverless.default_config ~func_id:(1 + Prng.int frng 1000) ())
        in
        (* One pass initializes the function; the kvstore beside it
           never idles, so the scheduler is stepped, not run to idle. *)
        while not (Serverless.initialized inst.Serverless.func) do
          ignore (Scheduler.step_all k)
        done;
        let never = Duration.seconds 3600 in
        let kv_g = Machine.persist m ~interval:never (`Container c.Container.cid) in
        let sl_g = Machine.persist m ~interval:never (`Container fc.Container.cid) in
        ignore (Machine.checkpoint_now m kv_g ~mode:`Full ());
        ignore (Machine.checkpoint_now m sl_g ~mode:`Full ());
        Machine.drain_storage m;
        (m, kv_g, sl_g, cfg, Kvstore.region_digest k p cfg,
         (inst.Serverless.func.Process.name, proc_digest inst.Serverless.func)))
  in
  let k = m.Machine.kernel in
  let store = m.Machine.disk_store in
  let kv_gen = Option.get kv_g.Types.last_gen and sl_gen = Option.get sl_g.Types.last_gen in
  let restores = ref [] and reads = ref [] in
  let rb_read = ref [] and rb_meta = ref [] and rb_mem = ref [] in
  let majors = ref 0 and minors = ref 0 in
  let dev0 = dev_snapshot m.Machine.nvme in
  let note_rb rb =
    restores := Duration.to_us rb.Types.total_latency :: !restores;
    rb_read := Duration.to_us rb.Types.objstore_read :: !rb_read;
    rb_meta := Duration.to_us rb.Types.metadata_state :: !rb_meta;
    rb_mem := Duration.to_us rb.Types.memory_state :: !rb_mem
  in
  let clone () =
    match timed "sls.restore" (fun () -> Machine.clone_group m sl_g ~gen:sl_gen ()) with
    | pids, rb ->
      note_rb rb;
      let ok =
        checking (fun () ->
            List.exists
              (fun pid ->
                match Kernel.proc k pid with
                | Some p when p.Process.name = sl_name -> proc_digest p = sl_digest
                | _ -> false)
              pids)
      in
      check "clone reproduces the function image" ok;
      Restore.kill_group k sl_g
    | exception e -> check ("clone_group: " ^ Printexc.to_string e) false
  in
  let restore policy =
    Store.drop_caches store;
    match timed "sls.restore" (fun () -> Machine.restore_group m kv_g ~gen:kv_gen ~policy ()) with
    | pid :: _, rb ->
      note_rb rb;
      let p = Kernel.proc_exn k pid in
      read_burst rng m p cfg ~reads:200 ~samples:reads;
      let mj, mn = fault_counts p in
      majors := !majors + mj;
      minors := !minors + mn;
      check "restore reproduces the kvstore image"
        (checking (fun () -> Kvstore.region_digest k p cfg) = kv_digest)
    | [], _ -> check "restore produced a process" false
    | exception e -> check ("restore_group: " ^ Printexc.to_string e) false
  in
  let rounds = rounds_for ~nominal_s:0.55 ~min_rounds:4 in
  run_rounds ~rounds (fun _ ->
      restore Types.Eager;
      clone ();
      restore Types.Lazy;
      clone ();
      restore Types.Lazy_prefetch);
  let dev1 = dev_snapshot m.Machine.nvme in
  headline := !restores;
  put_latency "restore_us" !restores;
  read_samples := !reads;
  put_latency "read_us" !reads;
  fsck_checks store;
  if trace then begin
    put_call_layer ~prefix:"sls.restore" "sls.restore";
    put layer "sls.restore.objstore_read_us" (mean !rb_read) "us";
    put layer "sls.restore.metadata_us" (mean !rb_meta) "us";
    put layer "sls.restore.memory_us" (mean !rb_mem) "us";
    put layer "proc.mem_read.wall_us" (median (acc "proc.mem_read").ns /. 1e3
                                      /. float_of_int !burst_size) "us";
    put layer "vm.faults_major" (float_of_int !majors) "count";
    put layer "vm.faults_minor" (float_of_int !minors) "count";
    put_device_layer dev0 dev1;
    put_store_layer store;
    put_simtime_layer m;
    replay_objstore store kv_gen;
    let oid, npages = data_object store kv_gen in
    replay_lookup rng store kv_gen ~oid ~npages;
    (match Kernel.processes k |> List.filter (fun p -> Types.member k kv_g p) with
     | p :: _ -> replay_arm p ~mode:`Full
     | [] -> ());
    replay_serialize k kv_g
  end

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

(* The metrics of the final JSON line: exactly the names BENCHMARK.json
   lists, so they exist on every workload. The workload-specific names
   above are printed for people, with the mapping in README.md. *)
let json_layer_names =
  [ "sls.op.wall_ms"; "sls.op.kwords"; "sls.serialize.wall_ms";
    "vm.arm.ns_per_page"; "objstore.ingest.ns_per_page";
    "objstore.ingest.words_per_page"; "objstore.commit.wall_ms";
    "objstore.btree.insert_ns"; "objstore.lookup_ns"; "objstore.dedup_hit_ratio";
    "device.commands"; "device.blocks_written"; "device.blocks_read";
    "simtime.spans"; "simtime.recorder_events"; "trace.overhead_pct" ]

let () =
  tracing := trace;
  let rng = Prng.create ~seed in
  let op =
    match workload with
    | "bulk-capture" -> bulk_capture rng; "sls.checkpoint"
    | "steady-epochs" -> steady_epochs rng; "sls.checkpoint"
    | _ -> restore_fanout rng; "sls.restore"
  in
  let untraced = !round_wall and traced = !round_wall_traced in
  let nrounds = List.length untraced + List.length traced in
  let h_tail, h_pct, h_n = tail !headline in
  let sim =
    [ ("latency_us_p50", p50 !headline, "us");
      ("latency_us_tail", h_tail, "us");
      ("read_us_mean", mean !read_samples, "us") ]
  in
  note "latency_us_tail is p%.1f of %d samples" h_pct h_n;
  note "uncalibrated round wall time: median %.4f s; reference kernel now: %.4f s"
    (median !round_raw) (calibration_s ());
  (* Every simulated metric, fixed before any harness metric is added:
     the fingerprint must match between traced and untraced runs. *)
  let sim_fp =
    Digest.to_hex
      (Digest.string
         (String.concat ";"
            (List.map (fun (n, v, _) -> n ^ "=" ^ json_num v) (!e2e @ sim))))
  in
  put e2e "fail_frac" (float_of_int !failed /. float_of_int (max 1 !attempted)) "ratio";
  let harness =
    [ ("setup_s", !setup_s, "s");
      ("wall_s", median untraced, "s");
      ("alloc_mwords", !round_words /. float_of_int nrounds /. 1e6, "Mwords");
      ("peak_heap_mb",
       float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6,
       "MB") ]
  in
  if trace then begin
    put_call_layer ~prefix:"sls.op" op;
    put layer "trace.overhead_pct" (100. *. ((median traced /. median untraced) -. 1.)) "%"
  end;
  Printf.printf "twoclock: workload=%s seed=%Ld seconds=%d trace=%d rounds=%d\n"
    workload seed seconds (if trace then 1 else 0) nrounds;
  let show (n, v, u) = Printf.printf "  %-34s %16.6g %s\n" n v u in
  print_endline "end-to-end:";
  List.iter show (harness @ sim);
  print_endline "end-to-end, by workload:";
  List.iter show !e2e;
  if trace then begin
    print_endline "per-layer:";
    List.iter show !layer
  end;
  List.iter (fun s -> Printf.printf "  (%s)\n" s) !notes;
  Printf.printf "sim-fingerprint: %s\n" sim_fp;
  let metrics =
    if trace then
      List.map
        (fun n ->
          match List.find_opt (fun (n', _, _) -> n' = n) !layer with
          | Some m -> m
          | None -> (n, Float.nan, "count"))
        json_layer_names
    else harness @ sim
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0) !attempted !failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_num v) u)
          metrics));
  exit (if !failed = 0 then 0 else 1)
