(* Unit and property tests for the simulated-time substrate:
   durations, clock, PRNG, statistics, the FNV-1a checksum and the
   binary codec. *)

open Aurora_simtime

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let duration_t : Duration.t Alcotest.testable =
  Alcotest.testable Duration.pp Duration.equal

(* ------------------------------------------------------------------ *)
(* Duration                                                            *)
(* ------------------------------------------------------------------ *)

let test_duration_units () =
  check_int "us" 1_000 (Duration.to_ns (Duration.microseconds 1));
  check_int "ms" 1_000_000 (Duration.to_ns (Duration.milliseconds 1));
  check_int "s" 1_000_000_000 (Duration.to_ns (Duration.seconds 1));
  Alcotest.(check (float 1e-9)) "to_us" 2.5 (Duration.to_us (Duration.nanoseconds 2_500))

let test_duration_arith () =
  let a = Duration.microseconds 5 and b = Duration.microseconds 3 in
  Alcotest.check duration_t "add" (Duration.microseconds 8) (Duration.add a b);
  Alcotest.check duration_t "sub" (Duration.microseconds 2) (Duration.sub a b);
  Alcotest.check duration_t "sub saturates" Duration.zero (Duration.sub b a);
  Alcotest.check duration_t "scale" (Duration.microseconds 15) (Duration.scale a 3);
  Alcotest.check duration_t "div" (Duration.nanoseconds 2_500) (Duration.div a 2)

let test_duration_float_conv () =
  Alcotest.check duration_t "of_us_float rounds"
    (Duration.nanoseconds 9_800)
    (Duration.of_us_float 9.8);
  Alcotest.check duration_t "of_sec_float"
    (Duration.milliseconds 1)
    (Duration.of_sec_float 0.001);
  Alcotest.check duration_t "scale_float"
    (Duration.nanoseconds 1_500)
    (Duration.scale_float (Duration.microseconds 1) 1.5)

let test_duration_invalid () =
  Alcotest.check_raises "negative ns" (Invalid_argument "Duration.nanoseconds: negative")
    (fun () -> ignore (Duration.nanoseconds (-1)));
  Alcotest.check_raises "negative float"
    (Invalid_argument "Duration.of_us_float: negative or non-finite")
    (fun () -> ignore (Duration.of_us_float (-1.0)))

let test_duration_compare () =
  let a = Duration.microseconds 1 and b = Duration.microseconds 2 in
  check_bool "lt" true Duration.(a < b);
  check_bool "le" true Duration.(a <= a);
  check_bool "gt" true Duration.(b > a);
  Alcotest.check duration_t "min" a (Duration.min a b);
  Alcotest.check duration_t "max" b (Duration.max a b)

let test_duration_pp () =
  Alcotest.(check string) "us table format" "950.8"
    (Format.asprintf "%a" Duration.pp_us (Duration.nanoseconds 950_800));
  Alcotest.(check string) "adaptive ms" "5.414ms"
    (Format.asprintf "%a" Duration.pp (Duration.of_us_float 5413.8))

let prop_duration_add_assoc =
  QCheck.Test.make ~name:"duration add is associative/commutative"
    QCheck.(triple (int_bound 1_000_000) (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (a, b, c) ->
      let d = Duration.nanoseconds in
      Duration.equal
        (Duration.add (d a) (Duration.add (d b) (d c)))
        (Duration.add (Duration.add (d a) (d b)) (d c))
      && Duration.equal (Duration.add (d a) (d b)) (Duration.add (d b) (d a)))

let prop_duration_sub_saturates =
  QCheck.Test.make ~name:"duration sub never negative"
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (a, b) ->
      let d = Duration.nanoseconds in
      Duration.to_ns (Duration.sub (d a) (d b)) >= 0)

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let test_clock_advance () =
  let c = Clock.create () in
  Alcotest.check duration_t "starts at zero" Duration.zero (Clock.now c);
  Clock.advance c (Duration.microseconds 10);
  Alcotest.check duration_t "advanced" (Duration.microseconds 10) (Clock.now c)

let test_clock_advance_to () =
  let c = Clock.create () in
  Clock.advance_to c (Duration.microseconds 5);
  Clock.advance_to c (Duration.microseconds 3); (* in the past: no-op *)
  Alcotest.check duration_t "monotone" (Duration.microseconds 5) (Clock.now c)

let test_clock_lap () =
  let c = Clock.create () in
  Clock.advance c (Duration.microseconds 100);
  let result, elapsed =
    Clock.lap c (fun () ->
        Clock.advance c (Duration.microseconds 7);
        42)
  in
  check_int "result" 42 result;
  Alcotest.check duration_t "elapsed" (Duration.microseconds 7) elapsed

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42L and b = Prng.create ~seed:42L in
  for _ = 1 to 100 do
    check_bool "same stream" true (Int64.equal (Prng.next_int64 a) (Prng.next_int64 b))
  done

let test_prng_split_independent () =
  let parent = Prng.create ~seed:7L in
  let child = Prng.split parent in
  let x = Prng.next_int64 child in
  (* A replayed parent yields the same child stream. *)
  let parent' = Prng.create ~seed:7L in
  let child' = Prng.split parent' in
  check_bool "split deterministic" true (Int64.equal x (Prng.next_int64 child'))

let test_prng_int_bounds () =
  let t = Prng.create ~seed:1L in
  for _ = 1 to 1_000 do
    let x = Prng.int t 17 in
    check_bool "in range" true (x >= 0 && x < 17)
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound <= 0")
    (fun () -> ignore (Prng.int t 0))

let test_prng_zipf_skew () =
  (* With theta=0.99, the most popular item dominates a uniform draw. *)
  let t = Prng.create ~seed:3L in
  let n = 1000 and draws = 20_000 in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let k = Prng.zipf t ~n ~theta:0.99 in
    check_bool "zipf in range" true (k >= 0 && k < n);
    counts.(k) <- counts.(k) + 1
  done;
  let top = counts.(0) in
  check_bool "skewed head" true (top > draws / 20);
  (* theta = 0 degenerates to uniform: head should be near draws/n. *)
  let u = Prng.create ~seed:3L in
  let ucounts = Array.make n 0 in
  for _ = 1 to draws do
    let k = Prng.zipf u ~n ~theta:0.0 in
    ucounts.(k) <- ucounts.(k) + 1
  done;
  check_bool "uniform head is small" true (ucounts.(0) < draws / 100)

let test_prng_shuffle_permutes () =
  let t = Prng.create ~seed:9L in
  let a = Array.init 100 (fun i -> i) in
  Prng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 (fun i -> i)) sorted

let prop_prng_float_range =
  QCheck.Test.make ~name:"prng float in [0,bound)"
    QCheck.(pair int64 (float_bound_exclusive 1000.0))
    (fun (seed, bound) ->
      QCheck.assume (bound > 0.0);
      let t = Prng.create ~seed in
      let x = Prng.float t bound in
      x >= 0.0 && x < bound)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  check_int "count" 5 (Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "median" 3.0 (Stats.median s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.min_value s);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Stats.max_value s)

let test_stats_percentile () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  Alcotest.(check (float 1.5)) "p99" 99.0 (Stats.percentile s 99.0);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile s 0.0);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.percentile s 100.0)

let test_stats_empty () =
  let s = Stats.create () in
  check_bool "mean nan" true (Float.is_nan (Stats.mean s));
  check_bool "median nan" true (Float.is_nan (Stats.median s))

let test_stats_duration () =
  let s = Stats.create () in
  Stats.add_duration s (Duration.microseconds 250);
  Alcotest.(check (float 1e-9)) "recorded as us" 250.0 (Stats.mean s)

let prop_stats_mean_bounded =
  QCheck.Test.make ~name:"mean between min and max"
    QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_inclusive 1000.0))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      Stats.mean s >= Stats.min_value s -. 1e-9
      && Stats.mean s <= Stats.max_value s +. 1e-9)

(* ------------------------------------------------------------------ *)
(* FNV-1a                                                              *)
(* ------------------------------------------------------------------ *)

(* The published 64-bit FNV-1a test vectors: every on-disk and on-wire
   checksum is this function, so a change here changes every format. *)
(* The reference vectors, and no allocation per byte hashed: a 64 KiB
   string costs the same minor words as the empty one (the boxed
   result). *)
let test_fnv1a_vectors () =
  List.iter
    (fun (input, want) ->
      Alcotest.(check int64) (Printf.sprintf "fnv1a %S" input) want (Fnv.fnv1a input))
    [ ("", 0xcbf29ce484222325L);
      ("a", 0xaf63dc4c8601ec8cL);
      ("foobar", 0x85944171f73967e8L) ];
  let words s =
    Gc.minor ();
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Fnv.fnv1a s));
    Gc.minor_words () -. w0
  in
  let big = String.make 65536 'x' in
  Alcotest.(check (float 0.)) "minor words per 64 KiB hashed" 0. (words big -. words "")

(* ------------------------------------------------------------------ *)
(* Serial                                                              *)
(* ------------------------------------------------------------------ *)

let test_serial_roundtrip () =
  let w = Serial.writer () in
  Serial.w_int w 42;
  Serial.w_int64 w (-7L);
  Serial.w_bool w true;
  Serial.w_string w "hello\000world";
  Serial.w_option w Serial.w_int (Some 5);
  Serial.w_option w Serial.w_int None;
  Serial.w_list w Serial.w_string [ "a"; "bb"; "" ];
  let r = Serial.reader (Serial.contents w) in
  check_int "int" 42 (Serial.r_int r);
  check_bool "int64" true (Int64.equal (-7L) (Serial.r_int64 r));
  check_bool "bool" true (Serial.r_bool r);
  check_str "string with nul" "hello\000world" (Serial.r_string r);
  Alcotest.(check (option int)) "some" (Some 5) (Serial.r_option r Serial.r_int);
  Alcotest.(check (option int)) "none" None (Serial.r_option r Serial.r_int);
  Alcotest.(check (list string)) "list" [ "a"; "bb"; "" ]
    (Serial.r_list r Serial.r_string);
  Serial.expect_end r

let test_serial_corrupt_detection () =
  let w = Serial.writer () in
  Serial.w_string w "data";
  let s = Serial.contents w in
  let truncated = String.sub s 0 (String.length s - 1) in
  check_bool "truncated detected" true
    (try
       ignore (Serial.r_string (Serial.reader truncated));
       false
     with Serial.Corrupt _ -> true);
  let r = Serial.reader s in
  ignore (Serial.r_string r);
  check_bool "at end" true (Serial.at_end r);
  let r2 = Serial.reader (s ^ "x") in
  ignore (Serial.r_string r2);
  check_bool "trailing detected" true
    (try
       Serial.expect_end r2;
       false
     with Serial.Corrupt _ -> true)

let prop_serial_string_roundtrip =
  QCheck.Test.make ~name:"serial string roundtrip" QCheck.string (fun s ->
      let w = Serial.writer () in
      Serial.w_string w s;
      String.equal s (Serial.r_string (Serial.reader (Serial.contents w))))

let prop_serial_int_roundtrip =
  QCheck.Test.make ~name:"serial int roundtrip" QCheck.int (fun i ->
      let w = Serial.writer () in
      Serial.w_int w i;
      Int.equal i (Serial.r_int (Serial.reader (Serial.contents w))))

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "simtime"
    [
      ( "duration",
        [
          Alcotest.test_case "units" `Quick test_duration_units;
          Alcotest.test_case "arithmetic" `Quick test_duration_arith;
          Alcotest.test_case "float conversions" `Quick test_duration_float_conv;
          Alcotest.test_case "invalid inputs" `Quick test_duration_invalid;
          Alcotest.test_case "comparisons" `Quick test_duration_compare;
          Alcotest.test_case "formatting" `Quick test_duration_pp;
          qt prop_duration_add_assoc;
          qt prop_duration_sub_saturates;
        ] );
      ( "clock",
        [
          Alcotest.test_case "advance" `Quick test_clock_advance;
          Alcotest.test_case "advance_to is monotone" `Quick test_clock_advance_to;
          Alcotest.test_case "lap" `Quick test_clock_lap;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "zipf skew" `Quick test_prng_zipf_skew;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
          qt prop_prng_float_range;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic moments" `Quick test_stats_basic;
          Alcotest.test_case "percentiles" `Quick test_stats_percentile;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "durations in us" `Quick test_stats_duration;
          qt prop_stats_mean_bounded;
        ] );
      ("fnv", [ Alcotest.test_case "FNV-1a 64 vectors" `Quick test_fnv1a_vectors ]);
      ( "serial",
        [
          Alcotest.test_case "roundtrip" `Quick test_serial_roundtrip;
          Alcotest.test_case "corruption detection" `Quick test_serial_corrupt_detection;
          qt prop_serial_string_roundtrip;
          qt prop_serial_int_roundtrip;
        ] );
    ]
