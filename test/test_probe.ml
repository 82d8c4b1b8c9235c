(* Tests for the dynamic-tracepoint layer: the probe DSL (parse /
   canonical-print round trip), online aggregation semantics, the
   zero-cost disabled path, marshal safety, the checkpoint
   critical-path analyzer, and the two observability regressions this
   layer shipped with (histogram overflow quantiles, stats gauge
   re-resolution). *)

open Aurora_simtime
open Aurora_proc
open Aurora_sls

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let check_string = Alcotest.(check string)
let qt = QCheck_alcotest.to_alcotest

let parse_exn s =
  match Probe.parse s with
  | Ok spec -> spec
  | Error e -> Alcotest.failf "parse %S failed: %s" s e

(* ------------------------------------------------------------------ *)
(* DSL: parsing                                                        *)
(* ------------------------------------------------------------------ *)

let test_parse_basics () =
  let s = parse_exn "dev.io" in
  check_bool "bare point" true
    (s.Probe.sp_point = Probe.Dev_io && s.Probe.sp_pred = None
    && s.Probe.sp_agg = Probe.Count && s.Probe.sp_by = None);
  let s = parse_exn "ckpt.phase where us > 50 agg quantize(us) by op" in
  check_bool "full query" true
    (s.Probe.sp_point = Probe.Ckpt_phase
    && s.Probe.sp_pred = Some (Probe.Cmp (Probe.Fus, Probe.Gt, Probe.Num 50.))
    && s.Probe.sp_agg = Probe.Quantize Probe.Fus
    && s.Probe.sp_by = Some Probe.Fop);
  (* == normalizes to =, quoted and bare strings are equivalent. *)
  let a = parse_exn "dev.io where dev == \"nvme.0\"" in
  let b = parse_exn "dev.io where dev = nvme.0" in
  check_bool "== and quoting normalize" true (a = b)

let test_parse_precedence () =
  (* && binds tighter than ||. *)
  let s = parse_exn "dev.io where us > 1 || us > 2 && us > 3" in
  let c v = Probe.Cmp (Probe.Fus, Probe.Gt, Probe.Num v) in
  check_bool "a || (b && c)" true
    (s.Probe.sp_pred = Some (Probe.Or (c 1., Probe.And (c 2., c 3.))));
  let s = parse_exn "dev.io where (us > 1 || us > 2) && us > 3" in
  check_bool "parens override" true
    (s.Probe.sp_pred = Some (Probe.And (Probe.Or (c 1., c 2.), c 3.)))

let test_parse_errors () =
  let fails s =
    match Probe.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
  in
  fails "bogus.point agg count";
  fails "dev.io where nope = 3";
  fails "dev.io where dev < x";       (* string fields: only = and != *)
  fails "dev.io where us = \"hi\"";   (* numeric field, string value *)
  fails "dev.io where dev = \"open";  (* unterminated string *)
  fails "dev.io agg sum(dev)";        (* aggregations need numeric fields *)
  fails "dev.io agg count extra";     (* trailing junk *)
  fails "dev.io where (us > 1"        (* unbalanced paren *)

(* ------------------------------------------------------------------ *)
(* DSL: print/parse round trip                                         *)
(* ------------------------------------------------------------------ *)

let num_fields = [ Probe.Fgen; Probe.Fpgid; Probe.Fus; Probe.Fblocks ]
let str_fields = [ Probe.Fdev; Probe.Fop ]

let spec_gen =
  let open QCheck.Gen in
  let num_field = oneofl num_fields in
  let str_field = oneofl str_fields in
  let value_num =
    oneof
      [ map float_of_int (int_range (-1000) 1000);
        oneofl [ 0.5; 2.25; 1e3; 0.125; 42.; 1e6 ] ]
  in
  let str_val =
    (* Printable ASCII, quotes and backslashes included: the printer
       must escape whatever the string holds. *)
    string_size ~gen:(map Char.chr (int_range 32 126)) (int_range 0 8)
  in
  let cmp_num = oneofl [ Probe.Eq; Probe.Ne; Probe.Lt; Probe.Le; Probe.Gt; Probe.Ge ] in
  let cmp_str = oneofl [ Probe.Eq; Probe.Ne ] in
  let leaf =
    oneof
      [ map3 (fun f c v -> Probe.Cmp (f, c, Probe.Num v)) num_field cmp_num value_num;
        map3 (fun f c v -> Probe.Cmp (f, c, Probe.Str v)) str_field cmp_str str_val ]
  in
  let pred =
    sized (fun n ->
        fix
          (fun self n ->
            if n <= 1 then leaf
            else
              frequency
                [ (2, leaf);
                  (1, map2 (fun a b -> Probe.And (a, b)) (self (n / 2)) (self (n / 2)));
                  (1, map2 (fun a b -> Probe.Or (a, b)) (self (n / 2)) (self (n / 2))) ])
          (min n 8))
  in
  let agg =
    oneof
      [ return Probe.Count;
        map (fun f -> Probe.Sum f) num_field;
        map (fun f -> Probe.Min f) num_field;
        map (fun f -> Probe.Max f) num_field;
        map (fun f -> Probe.Avg f) num_field;
        map (fun f -> Probe.Quantize f) num_field ]
  in
  let point = oneofl Probe.points in
  let* sp_point = point in
  let* sp_pred = option pred in
  let* sp_agg = agg in
  let* sp_by = option (oneofl (num_fields @ str_fields)) in
  return { Probe.sp_point; sp_pred; sp_agg; sp_by }

let spec_arbitrary =
  QCheck.make ~print:Probe.print spec_gen

let roundtrip_prop =
  QCheck.Test.make ~name:"parse (print s) = Ok s" ~count:1000 spec_arbitrary
    (fun spec ->
      match Probe.parse (Probe.print spec) with
      | Ok spec' ->
        spec' = spec
        || QCheck.Test.fail_reportf "reparsed to %s" (Probe.print spec')
      | Error e ->
        QCheck.Test.fail_reportf "print %S did not reparse: %s"
          (Probe.print spec) e)

let test_print_canonical () =
  (* The printer re-quotes strings and parenthesizes so precedence
     survives; spot-check the shapes the property test relies on. *)
  let p s = Probe.print (parse_exn s) in
  check_string "quoting" "dev.io where dev = \"nvme.0\" agg count"
    (p "dev.io where dev = nvme.0");
  check_string "precedence kept" "dev.io where us > 1 || us > 2 && us > 3 agg count"
    (p "dev.io where us > 1 || us > 2 && us > 3");
  check_string "parens kept" "dev.io where (us > 1 || us > 2) && us > 3 agg count"
    (p "dev.io where (us > 1 || us > 2) && us > 3")

(* ------------------------------------------------------------------ *)
(* Aggregation semantics                                               *)
(* ------------------------------------------------------------------ *)

let fire_io t ~op ~us ~blocks =
  if Probe.enabled t Probe.Dev_io then
    Probe.fire t Probe.Dev_io ~dev:"nvme.0" ~op ~gen:1 ~pgid:1 ~us ~blocks

let test_agg_count_by () =
  let t = Probe.create () in
  let id = Probe.subscribe t (parse_exn "dev.io agg count by op") in
  fire_io t ~op:"read" ~us:5. ~blocks:1;
  fire_io t ~op:"write" ~us:7. ~blocks:2;
  fire_io t ~op:"write" ~us:9. ~blocks:4;
  match Probe.report t id with
  | None -> Alcotest.fail "report missing"
  | Some r ->
    check_int "fired" 3 r.Probe.rp_fired;
    check_int "matched" 3 r.Probe.rp_matched;
    (match r.Probe.rp_rows with
     | [ a; b ] ->
       check_string "rows sorted by key" "read" a.Probe.r_key;
       check_int "read count" 1 a.Probe.r_n;
       check_string "write row" "write" b.Probe.r_key;
       check_int "write count" 2 b.Probe.r_n
     | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows))

let test_agg_stats_and_pred () =
  let t = Probe.create () in
  let id = Probe.subscribe t (parse_exn "dev.io where us >= 6 agg sum(blocks)") in
  fire_io t ~op:"read" ~us:5. ~blocks:100;  (* filtered out *)
  fire_io t ~op:"write" ~us:6. ~blocks:3;
  fire_io t ~op:"write" ~us:9. ~blocks:4;
  (match Probe.report t id with
   | Some r ->
     check_int "fired counts everything" 3 r.Probe.rp_fired;
     check_int "matched only passing" 2 r.Probe.rp_matched;
     (match r.Probe.rp_rows with
      | [ row ] ->
        check_float "sum over blocks" 7.0 row.Probe.r_sum;
        check_float "min" 3.0 row.Probe.r_min;
        check_float "max" 4.0 row.Probe.r_max
      | _ -> Alcotest.fail "one keyless row expected")
   | None -> Alcotest.fail "report missing");
  Probe.reset t;
  match Probe.report t id with
  | Some r ->
    check_int "reset zeroes fired" 0 r.Probe.rp_fired;
    check_int "reset drops rows" 0 (List.length r.Probe.rp_rows)
  | None -> Alcotest.fail "subscription survives reset"

let test_agg_quantize () =
  let t = Probe.create () in
  let id = Probe.subscribe t (parse_exn "dev.io agg quantize(us)") in
  (* Bucket i holds [2^(i-1), 2^i): 0.5 -> bucket 0, 1 -> 1, 3 -> 2,
     8 -> 4, 100 -> 7. *)
  List.iter (fun us -> fire_io t ~op:"w" ~us ~blocks:1) [ 0.5; 1.; 3.; 8.; 100. ];
  check_float "bucket 0 lower edge" 0.0 (Probe.quantize_lower 0);
  check_float "bucket 4 lower edge" 8.0 (Probe.quantize_lower 4);
  match Probe.report t id with
  | Some { Probe.rp_rows = [ row ]; _ } ->
    let b = row.Probe.r_buckets in
    check_int "0.5 in bucket 0" 1 b.(0);
    check_int "1 in bucket 1" 1 b.(1);
    check_int "3 in bucket 2" 1 b.(2);
    check_int "8 in bucket 4" 1 b.(4);
    check_int "100 in bucket 7" 1 b.(7)
  | _ -> Alcotest.fail "one row expected"

let test_enable_disable () =
  let t = Probe.create () in
  check_bool "fresh registry disabled" false (Probe.enabled t Probe.Dev_io);
  let id = Probe.subscribe t (parse_exn "dev.io agg count") in
  check_bool "subscription enables the point" true (Probe.enabled t Probe.Dev_io);
  check_bool "other points stay disabled" false (Probe.enabled t Probe.Repl_msg);
  Probe.unsubscribe t id;
  check_bool "last unsubscribe disables" false (Probe.enabled t Probe.Dev_io);
  check_int "no subscriptions left" 0 (List.length (Probe.subscriptions t))

let test_disabled_no_alloc () =
  let t = Probe.create () in
  (* The firing-site pattern: guard first, so the disabled path is one
     array read and no argument computation. Nothing here may allocate
     once warm. *)
  let site () =
    if Probe.enabled t Probe.Dev_io then
      Probe.fire t Probe.Dev_io ~dev:"nvme.0" ~op:"write" ~gen:1 ~pgid:1
        ~us:5.0 ~blocks:8
  in
  site ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    site ()
  done;
  let dw = Gc.minor_words () -. w0 in
  check_bool
    (Printf.sprintf "disabled path allocates nothing (%.0f minor words)" dw)
    true (dw < 64.)

let test_marshal_safe () =
  (* The registry is plain data (AST predicates, no closures): it must
     survive Marshal intact, with live subscriptions. *)
  let t = Probe.create () in
  ignore (Probe.subscribe t (parse_exn "dev.io where op = write agg sum(blocks) by dev"));
  fire_io t ~op:"write" ~us:5. ~blocks:2;
  let t' : Probe.t = Marshal.from_string (Marshal.to_string t []) 0 in
  check_bool "unmarshaled registry still enabled" true
    (Probe.enabled t' Probe.Dev_io);
  fire_io t' ~op:"write" ~us:5. ~blocks:3;
  match Probe.reports t' with
  | [ r ] ->
    check_int "cells survived plus new event" 2 r.Probe.rp_matched;
    (match r.Probe.rp_rows with
     | [ row ] -> check_float "sum accumulated across marshal" 5.0 row.Probe.r_sum
     | _ -> Alcotest.fail "one row expected")
  | _ -> Alcotest.fail "one subscription expected"

(* ------------------------------------------------------------------ *)
(* Machine integration: probes fire, and cost nothing when quiet       *)
(* ------------------------------------------------------------------ *)

let machine_with_app ?faults () =
  let m = Machine.create ?faults () in
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

let test_machine_probes_fire () =
  let m, g = machine_with_app () in
  let probes = m.Machine.kernel.Kernel.obs.Obs.probes in
  let io = Probe.subscribe probes (parse_exn "dev.io agg count by op") in
  let ph = Probe.subscribe probes (parse_exn "ckpt.phase agg max(us) by op") in
  let sc = Probe.subscribe probes (parse_exn "store.commit agg sum(blocks)") in
  let barrier =
    Probe.subscribe probes (parse_exn "ckpt.phase where op != flush agg sum(us) by gen")
  in
  let bs =
    List.init 3 (fun _ ->
        let b = Machine.checkpoint_now m g () in
        Machine.run m (Duration.milliseconds 1);
        b)
  in
  Machine.drain_storage m;
  let fired id =
    match Probe.report probes id with
    | Some r -> r.Probe.rp_fired
    | None -> 0
  in
  check_bool "dev.io fired" true (fired io > 0);
  check_bool "ckpt.phase fired" true (fired ph > 0);
  check_bool "store.commit fired" true (fired sc > 0);
  (* The phase probe carries the barrier phases and the flush by name,
     and the barrier phases tile each checkpoint's stop window. *)
  let rows id =
    match Probe.report probes id with
    | Some r -> r.Probe.rp_rows
    | None -> Alcotest.fail "phase report missing"
  in
  Alcotest.(check (list string))
    "phases" [ "cow_mark"; "flush"; "quiesce"; "serialize" ]
    (List.sort String.compare (List.map (fun row -> row.Probe.r_key) (rows ph)));
  List.iter
    (fun (b : Types.ckpt_breakdown) ->
      let stop = Duration.to_us b.Types.stop_time in
      match
        List.find_opt
          (fun row -> row.Probe.r_key = string_of_int b.Types.gen)
          (rows barrier)
      with
      | Some row ->
        check_int "three barrier phases" 3 row.Probe.r_n;
        check_bool
          (Printf.sprintf "gen %d phases sum to the stop time" b.Types.gen)
          true
          (Float.abs (row.Probe.r_sum -. stop) <= 1e-6 *. stop)
      | None -> Alcotest.failf "no barrier phases for gen %d" b.Types.gen)
    bs

let test_probes_do_not_perturb () =
  (* The same deterministic workload twice: once with live
     subscriptions on every point, once without. Simulated results
     must be bit-identical. *)
  let run subscribed =
    let m, g = machine_with_app () in
    if subscribed then
      List.iter
        (fun q ->
          ignore (Probe.subscribe m.Machine.kernel.Kernel.obs.Obs.probes (parse_exn q)))
        [ "dev.io agg quantize(us) by op"; "ckpt.phase agg sum(us) by op";
          "store.commit agg count"; "alloc.defer agg count by op" ];
    let b = Machine.checkpoint_now m g () in
    Machine.drain_storage m;
    (Duration.to_us b.Types.stop_time, Duration.to_us b.Types.durable_at,
     b.Types.pages_captured)
  in
  let s1, d1, p1 = run false in
  let s2, d2, p2 = run true in
  check_float "stop time identical" s1 s2;
  check_float "durability identical" d1 d2;
  check_int "pages identical" p1 p2

(* ------------------------------------------------------------------ *)
(* Critical path                                                       *)
(* ------------------------------------------------------------------ *)

let test_critpath_empty () =
  let m, _ = machine_with_app () in
  Span.clear (Machine.spans m);
  match Machine.critical_path m with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "analysis of an empty span tree succeeded"

let test_critpath_blame () =
  let m, g = machine_with_app () in
  Span.clear (Machine.spans m);
  let b = Machine.checkpoint_now m g () in
  Machine.drain_storage m;
  match Machine.critical_path m with
  | Error e -> Alcotest.failf "critical path: %s" e
  | Ok r ->
    let stop = Duration.to_us b.Types.stop_time in
    check_bool "stop matches the breakdown within 1%" true
      (Float.abs (r.Critpath.cp_stop_us -. stop) <= 0.01 *. stop +. 1e-6);
    let pct_sum =
      List.fold_left
        (fun acc (s : Critpath.segment) -> acc +. s.Critpath.sg_pct)
        0. r.Critpath.cp_segments
    in
    check_bool "percentages sum to 100" true (Float.abs (pct_sum -. 100.) < 1e-6);
    (* Contiguity: each segment starts where the previous ended. *)
    let rec contiguous = function
      | (a : Critpath.segment) :: (b : Critpath.segment) :: rest ->
        Duration.equal a.Critpath.sg_end b.Critpath.sg_start && contiguous (b :: rest)
      | _ -> true
    in
    check_bool "segments contiguous" true (contiguous r.Critpath.cp_segments);
    let names = List.map (fun (s : Critpath.segment) -> s.Critpath.sg_name) r.Critpath.cp_segments in
    List.iter
      (fun want -> check_bool (want ^ " present") true (List.mem want names))
      [ "quiesce"; "serialize"; "cow_mark"; "superblock" ];
    check_bool "a flush segment present" true
      (List.exists (fun n -> String.length n > 6 && String.sub n 0 6 = "flush.") names);
    (* Published as the ckpt.critpath.* family. *)
    let mm = Machine.metrics m in
    (match Metrics.find mm "ckpt.critpath.analyses" with
     | Some (Metrics.Counter n) -> check_bool "analyses counted" true (n >= 1)
     | _ -> Alcotest.fail "ckpt.critpath.analyses missing");
    (match Metrics.find mm "ckpt.critpath.stop_us" with
     | Some (Metrics.Gauge v) -> check_float "published stop" r.Critpath.cp_stop_us v
     | _ -> Alcotest.fail "ckpt.critpath.stop_us missing")

(* Mirror writes ride inside the commit's own transfers, so only
   [Machine.critical_path] can charge them: from the generation's
   provenance through the device profile. *)
let test_critpath_mirror_writes () =
  (* A non-zero fault rate turns on the store's verify + mirror
     protection. *)
  let faults = Aurora_device.Fault.plan ~seed:3L ~transient_read:1e-6 () in
  let m, g = machine_with_app ~faults () in
  Span.clear (Machine.spans m);
  ignore (Machine.checkpoint_now m g ());
  Machine.drain_storage m;
  match Machine.critical_path m with
  | Error e -> Alcotest.failf "critical path: %s" e
  | Ok r ->
    let ants = r.Critpath.cp_antagonists in
    (match
       List.find_opt (fun a -> a.Critpath.an_name = "mirror_writes") ants
     with
     | Some a -> check_bool "mirror_writes charged" true (a.Critpath.an_us > 0.)
     | None -> Alcotest.fail "no mirror_writes antagonist on a mirrored store");
    let rec sorted = function
      | (a : Critpath.antagonist) :: (b :: _ as rest) ->
        a.Critpath.an_us >= b.Critpath.an_us && sorted rest
      | _ -> true
    in
    check_bool "antagonists largest first" true (sorted ants)

let test_critpath_unknown_gen () =
  let m, g = machine_with_app () in
  Span.clear (Machine.spans m);
  ignore (Machine.checkpoint_now m g ());
  Machine.drain_storage m;
  match Machine.critical_path ~gen:99999 m with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "analysis of an unknown generation succeeded"

(* ------------------------------------------------------------------ *)
(* Regressions: histogram overflow quantile, stats gauge freshness     *)
(* ------------------------------------------------------------------ *)

let test_quantile_overflow_max () =
  let mr = Metrics.create (Clock.create ()) in
  let h = Metrics.histogram mr "t" in
  (* Default bounds top out at 1e6 us. A 3-second outlier used to
     report p99 = 1e6 (the last finite edge), silently capping the
     tail; it must report the observed maximum. *)
  Metrics.observe h 3_000_000.;
  check_float "overflow rank reports the max" 3_000_000. (Metrics.quantile h 0.99);
  check_float "p100 too" 3_000_000. (Metrics.quantile h 1.0);
  (* Interpolated estimates clamp to the observed max: with every
     sample at 120 in the (100, 200] bucket, naive interpolation
     reports up to 200. *)
  let h2 = Metrics.histogram mr "t2" in
  for _ = 1 to 10 do Metrics.observe h2 120. done;
  check_bool "interpolation clamped to max seen" true
    (Metrics.quantile h2 0.99 <= 120.);
  (* The snapshot carries max_seen (nan when empty). *)
  (match Metrics.find mr "t" with
   | Some (Metrics.Histogram { max_seen; _ }) ->
     check_float "snapshot max_seen" 3_000_000. max_seen
   | _ -> Alcotest.fail "histogram value missing");
  let h3 = Metrics.histogram mr "t3" in
  ignore h3;
  match Metrics.find mr "t3" with
  | Some (Metrics.Histogram { max_seen; _ }) ->
    check_bool "empty histogram max_seen is nan" true (Float.is_nan max_seen)
  | _ -> Alcotest.fail "empty histogram value missing"

let test_stats_gauges_fresh () =
  (* `sls stats` regression guard: derived gauges must be re-resolved
     and re-synced on EVERY export, not captured once at the first
     snapshot. Two checkpoints with a snapshot between them: the
     second export must see the extra device writes. *)
  let m, g = machine_with_app () in
  ignore (Machine.checkpoint_now m g ());
  Machine.drain_storage m;
  let mm = Machine.metrics m in
  let writes () =
    match Metrics.find mm "dev.nvme.writes" with
    | Some (Metrics.Gauge v) -> v
    | _ -> Alcotest.fail "dev.nvme.writes missing"
  in
  let w1 = writes () in
  check_bool "first export sees writes" true (w1 > 0.);
  ignore (Machine.checkpoint_now m g ());
  Machine.drain_storage m;
  let w2 = writes () in
  check_bool "second export is fresh, not the first snapshot" true (w2 > w1);
  (* The JSON export path runs the same hooks. *)
  let json = Metrics.to_json mm in
  check_bool "json export includes the derived gauge" true
    (let needle = "\"dev.nvme.writes\"" in
     let nl = String.length needle and jl = String.length json in
     let rec go i = i + nl <= jl && (String.sub json i nl = needle || go (i + 1)) in
     go 0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "probe"
    [
      ( "dsl",
        [
          Alcotest.test_case "parse basics" `Quick test_parse_basics;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "canonical print" `Quick test_print_canonical;
          qt roundtrip_prop;
        ] );
      ( "agg",
        [
          Alcotest.test_case "count by key" `Quick test_agg_count_by;
          Alcotest.test_case "sum/min/max + predicate" `Quick test_agg_stats_and_pred;
          Alcotest.test_case "quantize" `Quick test_agg_quantize;
          Alcotest.test_case "enable/disable" `Quick test_enable_disable;
          Alcotest.test_case "disabled path allocates nothing" `Quick
            test_disabled_no_alloc;
          Alcotest.test_case "marshal safe" `Quick test_marshal_safe;
        ] );
      ( "machine",
        [
          Alcotest.test_case "probes fire" `Quick test_machine_probes_fire;
          Alcotest.test_case "no simulated-time perturbation" `Quick
            test_probes_do_not_perturb;
        ] );
      ( "critpath",
        [
          Alcotest.test_case "empty tree is an error" `Quick test_critpath_empty;
          Alcotest.test_case "blame segments" `Quick test_critpath_blame;
          Alcotest.test_case "mirror-write antagonist" `Quick test_critpath_mirror_writes;
          Alcotest.test_case "unknown generation" `Quick test_critpath_unknown_gen;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "overflow quantile reports max" `Quick
            test_quantile_overflow_max;
          Alcotest.test_case "stats gauges re-resolve per export" `Quick
            test_stats_gauges_fresh;
        ] );
    ]
