(* Tests for the observability layer: a golden digest of every byte the
   sinks export, the metrics registry (counters, gauges, fixed-bucket
   histograms), the span recorder (nesting, orphans, Chrome export), the
   JSON emitter, and the end-to-end checkpoint/restore phase trees a
   Machine produces. *)

open Aurora_simtime
open Aurora_objstore
open Aurora_proc
open Aurora_sls

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let check_string = Alcotest.(check string)

let us d = Duration.to_us d

(* ------------------------------------------------------------------ *)
(* Metrics: counters and gauges                                        *)
(* ------------------------------------------------------------------ *)

let test_counter_basics () =
  let m = Metrics.create (Clock.create ()) in
  let c = Metrics.counter m "a.b" in
  check_int "starts at zero" 0 (Metrics.count c);
  Metrics.incr c;
  Metrics.add c 4;
  check_int "accumulates" 5 (Metrics.count c);
  let c' = Metrics.counter m "a.b" in
  Metrics.incr c';
  check_int "find-or-create returns the same handle" 6 (Metrics.count c)

let test_counter_monotone () =
  let m = Metrics.create (Clock.create ()) in
  let c = Metrics.counter m "mono" in
  Metrics.add c 3;
  check_bool "negative add raises" true
    (try
       Metrics.add c (-1);
       false
     with Invalid_argument _ -> true);
  check_int "value unchanged after the rejected add" 3 (Metrics.count c)

let test_kind_mismatch () =
  let m = Metrics.create (Clock.create ()) in
  ignore (Metrics.counter m "name");
  check_bool "gauge over counter raises" true
    (try
       ignore (Metrics.gauge m "name");
       false
     with Invalid_argument _ -> true);
  check_bool "histogram over counter raises" true
    (try
       ignore (Metrics.histogram m "name");
       false
     with Invalid_argument _ -> true)

let test_gauge () =
  let m = Metrics.create (Clock.create ()) in
  let g = Metrics.gauge m "g" in
  Metrics.set g 2.5;
  check_float "set" 2.5 (Metrics.value g);
  Metrics.set_int g 7;
  check_float "set_int" 7.0 (Metrics.value g)

(* ------------------------------------------------------------------ *)
(* Metrics: histograms                                                 *)
(* ------------------------------------------------------------------ *)

let bucket_list h =
  List.map snd (Metrics.bucket_counts h)

let test_histogram_bucket_edges () =
  let m = Metrics.create (Clock.create ()) in
  let h = Metrics.histogram m "h" in
  (* Upper edges are inclusive: a sample lands in the first bucket
     whose edge is >= the value. *)
  Metrics.observe h 0.5;
  Metrics.observe h 1.0;
  (* both <= 1 *)
  Metrics.observe h 1.5;
  Metrics.observe h 2.0;
  (* both in (1, 2] *)
  Metrics.observe h 2_000_000.0;
  (* above every edge: overflow *)
  check_int "20 buckets (19 finite + overflow)" 20
    (List.length (Metrics.bucket_counts h));
  check_bool "edges 1-2-5 per decade, 1 us to 1 s" true
    (List.map fst (Metrics.bucket_counts h)
     = [ 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1_000.; 2_000.; 5_000.;
         10_000.; 20_000.; 50_000.; 100_000.; 200_000.; 500_000.; 1_000_000.;
         Float.infinity ]);
  Alcotest.(check (list int)) "two <=1, two in (1,2], one overflow"
    ([ 2; 2 ] @ List.init 17 (fun _ -> 0) @ [ 1 ])
    (bucket_list h);
  check_int "count" 5 (Metrics.hist_count h);
  check_float "sum" 2_000_005.0 (Metrics.hist_sum h);
  check_float "mean" 400_001.0 (Metrics.hist_mean h)

let test_quantile_interpolation () =
  let m = Metrics.create (Clock.create ()) in
  let h = Metrics.histogram m "q" in
  (* 10 samples in the (5, 10] bucket, 10 in (10, 20]. The median rank
     sits exactly at the first bucket's upper edge; the 0.75 quantile
     is halfway through the second bucket. *)
  for _ = 1 to 10 do
    Metrics.observe h 7.0
  done;
  for _ = 1 to 10 do
    Metrics.observe h 15.0
  done;
  check_float "p50 at the first edge" 10.0 (Metrics.quantile h 0.5);
  check_float "p75 interpolates" 15.0 (Metrics.quantile h 0.75);
  check_float "p100 clamps to the observed max" 15.0 (Metrics.quantile h 1.0)

let test_quantile_overflow_and_empty () =
  let m = Metrics.create (Clock.create ()) in
  let h = Metrics.histogram m "qo" in
  check_bool "empty quantile is nan" true (Float.is_nan (Metrics.quantile h 0.5));
  Metrics.observe h 3_000_000.0;
  check_float "overflow reports the observed max" 3_000_000.0 (Metrics.quantile h 0.99)

let test_snapshot_and_json () =
  let clock = Clock.create () in
  Clock.advance clock (Duration.microseconds 42);
  let m = Metrics.create clock in
  Metrics.incr (Metrics.counter m "c1");
  Metrics.set (Metrics.gauge m "g1") 1.5;
  Metrics.observe (Metrics.histogram m "h1") 1.0;
  (match Metrics.snapshot m with
   | [ ("c1", Metrics.Counter 1); ("g1", Metrics.Gauge 1.5);
       ("h1", Metrics.Histogram { count = 1; _ }) ] ->
     ()
   | _ -> Alcotest.fail "snapshot shape/order");
  check_bool "find hit" true (Metrics.find m "g1" <> None);
  check_bool "find miss" true (Metrics.find m "nope" = None);
  let json = Metrics.to_json m in
  let has needle =
    let nl = String.length needle and jl = String.length json in
    let rec go i = i + nl <= jl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "sim-time stamp" true (has "\"at_us\": 42");
  check_bool "counter" true (has "\"c1\"");
  check_bool "histogram quantiles" true (has "\"p99\"");
  check_bool "overflow bucket edge" true (has "\"+inf\"");
  (* Gauges export at full precision: 6 significant digits would print
     2.68435e+08. *)
  Metrics.set_int (Metrics.gauge m "big") 268_435_457;
  let doc = Strict_json.parse_exn ~what:"Metrics.to_json" (Metrics.to_json m) in
  check_bool "gauge exact" true
    (Strict_json.(member "value" (member "big" (member "metrics" doc)))
     = Json.Int 268_435_457)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  let clock = Clock.create () in
  let t = Span.create clock in
  let a = Span.start t "a" in
  Clock.advance clock (Duration.microseconds 10);
  let b = Span.start t "b" in
  Clock.advance clock (Duration.microseconds 5);
  let db = Span.finish t b in
  Clock.advance clock (Duration.microseconds 5);
  let da = Span.finish t a in
  check_float "child duration" 5.0 (us db);
  check_float "parent duration" 20.0 (us da);
  check_int "b parented to a" a.Span.id b.Span.parent;
  check_int "a is a root" (-1) a.Span.parent;
  check_int "one root" 1 (List.length (Span.roots t));
  (match Span.children t a with
   | [ c ] -> check_string "child name" "b" c.Span.name
   | _ -> Alcotest.fail "children");
  check_int "no orphans" 0 (Span.orphan_finishes t);
  check_int "nothing open" 0 (Span.open_count t)

let test_span_orphans () =
  let clock = Clock.create () in
  let t = Span.create clock in
  let a = Span.start t "a" in
  let b = Span.start t "b" in
  Clock.advance clock (Duration.microseconds 3);
  (* Finishing the parent closes the abandoned child. *)
  ignore (Span.finish t a);
  check_bool "child force-closed" true b.Span.closed;
  check_int "counted as an orphan" 1 (Span.orphan_finishes t);
  (* Finishing an already-closed span is also an orphan finish. *)
  ignore (Span.finish t b);
  check_int "double finish counted" 2 (Span.orphan_finishes t)

let test_span_record_autoparent () =
  let clock = Clock.create () in
  let t = Span.create clock in
  let a = Span.start t "a" in
  Span.record t ~name:"xfer" ~start_at:(Duration.microseconds 1)
    ~end_at:(Duration.microseconds 2) ();
  ignore (Span.finish t a);
  (match Span.find t ~name:"xfer" with
   | Some s -> check_int "recorded interval parented to open span" a.Span.id s.Span.parent
   | None -> Alcotest.fail "recorded span missing")

let test_span_capacity () =
  let clock = Clock.create () in
  let t = Span.create clock in
  for _ = 1 to 262_144 do
    ignore (Span.finish t (Span.start t "a"))
  done;
  check_int "nothing dropped at capacity" 0 (Span.dropped t);
  ignore (Span.finish t (Span.start t "over"));
  check_int "retains up to capacity" 262_144 (List.length (Span.spans t));
  check_int "drops counted" 1 (Span.dropped t);
  check_bool "the overflowing span is not retained" true
    (Span.find t ~name:"over" = None);
  Span.clear t;
  check_int "clear resets" 0 (Span.dropped t)

let test_span_chrome_json () =
  let clock = Clock.create () in
  let t = Span.create clock in
  Span.with_span t ~track:"cpu" "outer" (fun () ->
      Clock.advance clock (Duration.microseconds 7));
  let json = Span.to_chrome_json t in
  let has needle =
    let nl = String.length needle and jl = String.length json in
    let rec go i = i + nl <= jl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "traceEvents array" true (has "\"traceEvents\"");
  check_bool "complete event" true (has "\"ph\": \"X\"");
  check_bool "track name metadata" true (has "thread_name");
  check_bool "span name present" true (has "\"outer\"");
  ignore (Strict_json.parse_exn ~what:"Span.to_chrome_json" json)

(* ------------------------------------------------------------------ *)
(* Json: the one emitter                                               *)
(* ------------------------------------------------------------------ *)

let test_json_printer_rules () =
  let p v = Json.to_string v in
  check_string "escapes and controls" "\"a\\\"b\\\\c\\u000a\\u0001\\u001f\x7f\""
    (p (String "a\"b\\c\n\x01\x1f\x7f"));
  check_string "valid UTF-8 passes through" "\"caf\xc3\xa9 \xe2\x82\xac\"" (p (String "caf\xc3\xa9 \xe2\x82\xac"));
  check_string "invalid bytes become U+FFFD" "\"a\xef\xbf\xbdb\xef\xbf\xbd\"" (p (String "a\xffb\xc3"));
  check_string "short float" "0.1" (p (Float 0.1));
  check_string "exact float" "0.33333333333333331" (p (Float (1. /. 3.)));
  check_string "integral float" "268435457" (p (Float 268435457.));
  List.iter
    (fun v -> check_string "non-finite" "null" (p (Float v)))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  check_string "fixed keeps the rounding" "2.5" (p (Json.fixed 3 2.4999999));
  check_string "layout" "{\"a\": [1, true, null], \"b\": {}}"
    (p (Obj [ ("a", List [ Int 1; Bool true; Null ]); ("b", Obj []) ]))

(* The reference for strings: each maximal ill-formed subsequence
   becomes one U+FFFD, everything else is kept. *)
let sanitize s =
  let b = Buffer.create (String.length s) in
  let rec go i =
    if i < String.length s then begin
      let d = String.get_utf_8_uchar s i in
      Buffer.add_utf_8_uchar b (Uchar.utf_decode_uchar d);
      go (i + Uchar.utf_decode_length d)
    end
  in
  go 0;
  Buffer.contents b

(* What a printed value must parse back to: sanitized strings, null
   for non-finite floats. *)
let rec expected : Json.t -> Json.t = function
  | String s -> String (sanitize s)
  | Float f when not (Float.is_finite f) -> Null
  | List l -> List (List.map expected l)
  | Obj kvs -> Obj (List.map (fun (k, v) -> (sanitize k, expected v)) kvs)
  | v -> v

(* Integral floats print without a fraction and parse back as ints. *)
let rec same (a : Json.t) (b : Json.t) =
  match (a, b) with
  | Int i, Float f | Float f, Int i -> float_of_int i = f
  | List xs, List ys -> List.length xs = List.length ys && List.for_all2 same xs ys
  | Obj xs, Obj ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (k, v) (k', v') -> k = k' && same v v') xs ys
  | a, b -> a = b

let gen_json =
  let open QCheck.Gen in
  let str =
    oneof
      [ string_size ~gen:char (int_bound 12);
        map (String.concat "")
          (list_size (int_bound 6)
             (oneofl
                [ "a"; "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9f\x98\x80"; "\""; "\\"; "\n";
                  "\x01"; "\x7f"; "\xff"; "\xc3"; "\xed\xa0\x80"; "\xf4\x90\x80\x80" ])) ]
  in
  let num =
    oneof
      [ float; map Int64.float_of_bits int64;
        oneofl [ Float.nan; Float.infinity; Float.neg_infinity; 0.; -0.; 0.1; 5e-324 ] ]
  in
  sized
  @@ fix (fun self size ->
         let leaf =
           oneof
             [ return Json.Null; map (fun b -> Json.Bool b) bool; map (fun i -> Json.Int i) int;
               map (fun f -> Json.Float f) num; map (fun s -> Json.String s) str ]
         in
         if size <= 0 then leaf
         else
           frequency
             [ (3, leaf);
               (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (size / 4))));
               ( 1,
                 map (fun kvs -> Json.Obj kvs)
                   (list_size (int_bound 4) (pair str (self (size / 4)))) ) ])

let prop_json_roundtrip =
  QCheck.Test.make ~count:2000 ~name:"printed JSON parses and round-trips"
    (QCheck.make ~print:(fun v -> String.escaped (Json.to_string v)) gen_json)
    (fun v ->
      match Strict_json.parse (Json.to_string v) with
      | parsed -> same parsed (expected v)
      | exception Strict_json.Error _ -> false)

(* ------------------------------------------------------------------ *)
(* End to end: a Machine's checkpoint/restore span tree                *)
(* ------------------------------------------------------------------ *)

let machine_with_app () =
  let m = Machine.create () in
  let k = m.Machine.kernel in
  let c = Kernel.new_container k ~name:"app" in
  let p =
    Kernel.spawn k ~container:c.Container.cid ~name:"w"
      ~program:"aurora/kv-client" ()
  in
  let e = Syscall.mmap_anon k p ~npages:32 in
  for i = 0 to 31 do
    Syscall.mem_write k p ~vpn:(e.Aurora_vm.Vmmap.start_vpn + i) ~offset:0
      ~value:(Int64.of_int (i + 1))
  done;
  let g = Machine.persist m (`Container c.Container.cid) in
  (m, g)

let span_duration_exn t name =
  match Span.find t ~name with
  | Some s -> Span.duration s
  | None -> Alcotest.failf "span %s missing" name

let test_ckpt_span_tree () =
  let m, g = machine_with_app () in
  let spans = Machine.spans m in
  Span.clear spans;
  let b = Machine.checkpoint_now m g ~mode:`Full () in
  let root =
    match Span.find spans ~name:"ckpt" with
    | Some s -> s
    | None -> Alcotest.fail "no ckpt root"
  in
  let names = List.map (fun (s : Span.span) -> s.Span.name) (Span.children spans root) in
  check_bool "quiesce child" true (List.mem "ckpt.quiesce" names);
  check_bool "serialize child" true (List.mem "ckpt.serialize" names);
  check_bool "cow_mark child" true (List.mem "ckpt.cow_mark" names);
  check_bool "background flush child" true (List.mem "store.flush" names);
  (* The three stop-the-world phases tile the stop window exactly. *)
  let sum =
    Duration.add
      (span_duration_exn spans "ckpt.quiesce")
      (Duration.add
         (span_duration_exn spans "ckpt.serialize")
         (span_duration_exn spans "ckpt.cow_mark"))
  in
  Alcotest.(check (float 1e-6))
    "phases sum to the stop time" (us b.Types.stop_time) (us sum);
  check_bool "breakdown carries the quiesce phase" true
    Duration.(b.Types.quiesce > Duration.zero);
  check_int "no open spans after checkpoint" 0 (Span.open_count spans)

let test_restore_span_tree () =
  let m, g = machine_with_app () in
  let b = Machine.checkpoint_now m g () in
  Store.wait_durable m.Machine.disk_store b.Types.durable_at;
  Store.drop_caches m.Machine.disk_store;
  let spans = Machine.spans m in
  Span.clear spans;
  let _, r = Machine.restore_group m g ~policy:Types.Lazy_prefetch () in
  let root =
    match Span.find spans ~name:"restore" with
    | Some s -> s
    | None -> Alcotest.fail "no restore root"
  in
  let names = List.map (fun (s : Span.span) -> s.Span.name) (Span.children spans root) in
  check_bool "metadata child" true (List.mem "restore.metadata" names);
  check_bool "pagein child" true (List.mem "restore.pagein" names);
  let sum =
    Duration.add
      (span_duration_exn spans "restore.metadata")
      (span_duration_exn spans "restore.pagein")
  in
  Alcotest.(check (float 1e-6))
    "phases sum to the restore latency" (us r.Types.total_latency) (us sum);
  (* Lazy_prefetch pages the recorded hot set in during the pagein
     phase; the prefetch interval nests under it. *)
  (match Span.find spans ~name:"restore.prefetch" with
   | Some s ->
     let pagein =
       match Span.find spans ~name:"restore.pagein" with
       | Some p -> p
       | None -> Alcotest.fail "no pagein span"
     in
     check_int "prefetch nests under pagein" pagein.Span.id s.Span.parent
   | None -> Alcotest.fail "no prefetch span");
  check_int "no open spans after restore" 0 (Span.open_count spans)

let test_machine_metrics_flow () =
  let m, g = machine_with_app () in
  ignore (Machine.checkpoint_now m g ());
  let mm = Machine.metrics m in
  (match Metrics.find mm "ckpt.count" with
   | Some (Metrics.Counter n) -> check_bool "ckpt counted" true (n >= 1)
   | _ -> Alcotest.fail "ckpt.count missing");
  (match Metrics.find mm "ckpt.stop_us" with
   | Some (Metrics.Histogram { count; _ }) ->
     check_bool "stop histogram sampled" true (count >= 1)
   | _ -> Alcotest.fail "ckpt.stop_us missing");
  Machine.sync_metrics m;
  check_bool "device gauges folded in" true
    (Metrics.find mm "dev.nvme.writes" <> None)

let test_restore_typed_error () =
  let m, g = machine_with_app () in
  let b = Machine.checkpoint_now m g () in
  Store.wait_durable m.Machine.disk_store b.Types.durable_at;
  let k = m.Machine.kernel in
  let gen = match g.Types.last_gen with Some n -> n | None -> Alcotest.fail "no gen" in
  (match
     Restore.restore_result k ~store:m.Machine.disk_store ~gen ~pgid:9999 ()
   with
   | Error (Restore.No_manifest { pgid = 9999; _ }) -> ()
   | Error e -> Alcotest.failf "wrong error: %s" (Restore.describe_error e)
   | Ok _ -> Alcotest.fail "restore of a never-checkpointed group succeeded");
  check_bool "describe is human-readable" true
    (String.length (Restore.describe_error (Restore.Bad_image "x")) > 0)

(* A bound device array stays marshalable: the CLI writes the live
   array into the universe file, so a device's instrumentation may hold
   metric cells, spans and probes, but never a closure. *)
let test_bound_device_marshals () =
  let m, g = machine_with_app () in
  ignore (Machine.checkpoint_now m g ());
  let dev : Aurora_device.Devarray.t =
    Marshal.from_string (Marshal.to_string m.Machine.nvme []) 0
  in
  check_string "array round-trips" "nvme" (Aurora_device.Devarray.name dev)

(* ------------------------------------------------------------------ *)
(* Golden outputs                                                      *)
(* ------------------------------------------------------------------ *)

(* Five scenarios that between them produce every metric family, span
   kind, tracepoint and recorder event kind a machine emits. Their
   exported bytes hash to one digest, which moves on any change to
   metric registration order, span order, parents or attributes, probe
   firing order or recorder contents. Object and address-space ids come
   from process-wide counters, so this group runs first in the suite. *)

let () =
  Program.register ~name:"obs/walker" (fun k p th ->
      let ctx = th.Thread.context in
      if ctx.Context.pc = 0 then begin
        let e = Syscall.mmap_anon k p ~npages:(Context.reg_int ctx 2) in
        Context.set_reg_int ctx 1 e.Aurora_vm.Vmmap.start_vpn;
        ctx.Context.pc <- 1;
        Program.Continue
      end
      else begin
        let step = Context.reg_int ctx 4 in
        Syscall.mem_write k p
          ~vpn:(Context.reg_int ctx 1 + (step mod Context.reg_int ctx 2))
          ~offset:0 ~value:(Int64.of_int (1000 + step));
        Context.set_reg_int ctx 4 (step + 1);
        Program.Continue
      end);
  Program.register ~name:"obs/parked" (fun _ _ _ -> Program.Block Thread.Wait_forever)

let spawn_golden m ~program ~npages =
  let k = m.Machine.kernel in
  let c = Kernel.new_container k ~name:"golden" in
  let p = Kernel.spawn k ~container:c.Container.cid ~name:"golden" ~program () in
  Context.set_reg_int (Process.main_thread p).Thread.context 2 npages;
  (c, p)

(* One subscription per tracepoint, in [Probe.points] order. Sums of
   floats depend on firing order, so the reports pin it. *)
let subscribe_all probes =
  List.map
    (fun pt ->
      match Probe.parse (Probe.point_name pt ^ " agg sum(us) by op") with
      | Ok spec -> Probe.subscribe probes spec
      | Error e -> Alcotest.fail e)
    Probe.points

let golden_probes m = m.Machine.kernel.Kernel.obs.Obs.probes

(* Every exported byte of one set of sinks; [fired] accumulates the
   per-point firing counts. *)
let golden_export ~fired (o : Obs.t) ids =
  let reports =
    List.mapi
      (fun i id ->
        let r = Option.get (Probe.report o.Obs.probes id) in
        fired.(i) <- fired.(i) + r.Probe.rp_fired;
        Probe.report_json r)
      ids
  in
  Metrics.to_json o.Obs.metrics :: Span.to_chrome_json o.Obs.spans
  :: Recorder.export o.Obs.recorder :: reports

let golden_machine ~fired m ids = golden_export ~fired m.Machine.kernel.Kernel.obs ids

(* Pipeline window 2, a standby behind a link dropping 5% of frames,
   a two-generation history, a lazy-prefetch restore, a clone, and a
   failover. *)
let golden_replicated ~fired =
  let m = Machine.create ~stripes:2 ~max_inflight_ckpts:2 () in
  let ids = subscribe_all (golden_probes m) in
  m.Machine.history_window <- 2;
  let c, _ = spawn_golden m ~program:"obs/walker" ~npages:64 in
  let g =
    Machine.persist m ~interval:(Duration.milliseconds 1) (`Container c.Container.cid)
  in
  ignore
    (Machine.attach_standby m
       ~faults:(Aurora_device.Netlink.fault_plan ~seed:5L ~drop:0.05 ())
       g);
  Machine.run m (Duration.milliseconds 20);
  Machine.drain_storage m;
  ignore (Machine.restore_group m g ~policy:Types.Lazy_prefetch ());
  ignore (Machine.clone_group m g ());
  Machine.run m (Duration.milliseconds 2);
  Machine.drain_storage m;
  let promoted, _ = Machine.failover m in
  golden_machine ~fired m ids
  @ golden_machine ~fired promoted (subscribe_all (golden_probes promoted))

(* Window 3, two full captures still in flight at the power failure,
   then recovery and its post-mortem. *)
let golden_crash ~fired =
  let m = Machine.create ~stripes:1 ~max_inflight_ckpts:3 () in
  let ids = subscribe_all (golden_probes m) in
  m.Machine.history_window <- 1_000;
  let npages = 2048 in
  let c, p = spawn_golden m ~program:"obs/parked" ~npages in
  let k = m.Machine.kernel in
  let e = Syscall.mmap_anon k p ~npages in
  let dirty () =
    for i = 0 to npages - 1 do
      Syscall.mem_write k p ~vpn:(e.Aurora_vm.Vmmap.start_vpn + i) ~offset:0
        ~value:(Int64.of_int (Duration.to_ns (Machine.now m) + i))
    done
  in
  let g =
    Machine.persist m ~interval:(Duration.seconds 10) (`Container c.Container.cid)
  in
  dirty ();
  ignore (Machine.checkpoint_now m g ~mode:`Full ());
  Machine.drain_storage m;
  dirty ();
  ignore (Machine.checkpoint_now m g ~mode:`Full ());
  ignore (Machine.checkpoint_now m g ~mode:`Full ());
  Machine.run m (Duration.microseconds 30);
  let before = golden_machine ~fired m ids in
  Machine.crash m;
  let m' = Machine.recover m in
  let pm =
    match Machine.postmortem m' with
    | Some pm -> pm
    | None -> Alcotest.fail "no postmortem"
  in
  check_int "two epochs in flight" 2 (List.length pm.Machine.pm_pending_epochs);
  before
  @ golden_machine ~fired m' (subscribe_all (golden_probes m'))
  @ [ String.concat ","
        (List.map
           (fun mk -> string_of_int mk.Recorder.cm_gen)
           pm.Machine.pm_pending_epochs);
      Option.value pm.Machine.pm_crash_reason ~default:"-" ]

(* A 256-block device: full checkpoints until one degrades. *)
let golden_degrade ~fired =
  let m = Machine.create ~storage_blocks:256 () in
  let ids = subscribe_all (golden_probes m) in
  m.Machine.history_window <- 1_000;
  let c, _ = spawn_golden m ~program:"obs/walker" ~npages:8 in
  let g = Machine.persist m (`Container c.Container.cid) in
  let rec loop n =
    Machine.run m (Duration.milliseconds 1);
    match (Machine.checkpoint_now m g ~mode:`Full ()).Types.status with
    | `Degraded _ -> ()
    | `Ok -> if n = 0 then Alcotest.fail "device never filled" else loop (n - 1)
  in
  loop 60;
  golden_machine ~fired m ids

(* A raw device array and store, bound to a handle of their own. *)
let golden_raw ~fired =
  let open Aurora_device in
  let clock = Clock.create () in
  let dev = Devarray.create ~stripes:2 ~clock ~profile:Profile.optane_900p "raw" in
  let s = Store.format ~dev () in
  let obs = Obs.create clock in
  Devarray.set_obs dev (Some obs);
  Store.set_obs s (Some obs);
  let ids = subscribe_all obs.Obs.probes in
  for round = 0 to 5 do
    ignore (Store.begin_generation s ());
    Store.put_pages s ~oid:1
      (Array.init 48 (fun i -> (i, Int64.of_int ((round * 16) + i))));
    Store.put_record s ~oid:2 (Printf.sprintf "record %d" round);
    let gen, _ = Store.commit s () in
    ignore (Store.gc s ~keep:[ gen ]);
    Store.drop_caches s;
    let { Store.blocks; _ } = Store.page_map s gen ~oid:1 in
    ignore (Store.read_page_blocks s (Array.sub blocks 0 8))
  done;
  Store.wait_all_durable s;
  golden_export ~fired obs ids

(* The synchronous engine: every barrier waits out its own flush. *)
let golden_sync ~fired =
  let m = Machine.create ~max_inflight_ckpts:1 () in
  let ids = subscribe_all (golden_probes m) in
  let c, _ = spawn_golden m ~program:"obs/walker" ~npages:64 in
  ignore
    (Machine.persist m ~interval:(Duration.milliseconds 1) (`Container c.Container.cid));
  Machine.run m (Duration.milliseconds 5);
  Machine.drain_storage m;
  check_bool "backpressure span" true
    (Span.find (Machine.spans m) ~name:"ckpt.backpressure" <> None);
  golden_machine ~fired m ids

let golden_digest = "20b68ef878674d4076e0b3d81d047288"

let test_golden () =
  let fired = Array.make (List.length Probe.points) 0 in
  let parts =
    List.concat_map
      (fun scenario -> scenario ~fired)
      [ golden_replicated; golden_crash; golden_degrade; golden_raw; golden_sync ]
  in
  List.iteri
    (fun i pt -> check_bool (Probe.point_name pt ^ " fired") true (fired.(i) > 0))
    Probe.points;
  check_string "golden digest" golden_digest
    (Digest.to_hex (Digest.string (String.concat "\000" parts)))

let () =
  Alcotest.run "obs"
    [
      ("golden", [ Alcotest.test_case "observability outputs" `Quick test_golden ]);
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "counter monotone" `Quick test_counter_monotone;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "bucket edges" `Quick test_histogram_bucket_edges;
          Alcotest.test_case "quantile interpolation" `Quick
            test_quantile_interpolation;
          Alcotest.test_case "quantile overflow/empty" `Quick
            test_quantile_overflow_and_empty;
          Alcotest.test_case "snapshot and json" `Quick test_snapshot_and_json;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "orphans" `Quick test_span_orphans;
          Alcotest.test_case "record auto-parent" `Quick test_span_record_autoparent;
          Alcotest.test_case "capacity" `Quick test_span_capacity;
          Alcotest.test_case "chrome json" `Quick test_span_chrome_json;
        ] );
      ( "json",
        [
          Alcotest.test_case "printer rules" `Quick test_json_printer_rules;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
        ] );
      ( "machine",
        [
          Alcotest.test_case "ckpt span tree" `Quick test_ckpt_span_tree;
          Alcotest.test_case "restore span tree" `Quick test_restore_span_tree;
          Alcotest.test_case "metrics flow" `Quick test_machine_metrics_flow;
          Alcotest.test_case "typed restore error" `Quick test_restore_typed_error;
          Alcotest.test_case "bound device marshals" `Quick
            test_bound_device_marshals;
        ] );
    ]
