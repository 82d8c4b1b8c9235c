(* End-to-end tests of the `sls` command line over a universe file:
   every Table 1 command, including the app surviving a power failure
   between CLI invocations, and image export/import between
   universes. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let sls args =
  Aurora_cli.Cli.run ~argv:(Array.of_list ("sls" :: args))

let with_universe name f =
  let path = tmp name in
  if Sys.file_exists path then Sys.remove path;
  check_int "init ok" 0 (sls [ "init"; "-u"; path ]);
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* Capture what a command prints (the CLI talks on stdout). *)
let capture f =
  let old = Unix.dup Unix.stdout in
  let read_fd, write_fd = Unix.pipe () in
  Unix.dup2 write_fd Unix.stdout;
  let result = f () in
  flush stdout;
  Unix.close write_fd;
  Unix.dup2 old Unix.stdout;
  Unix.close old;
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    let n = Unix.read read_fd chunk 0 4096 in
    if n > 0 then begin
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
    end
  in
  (try drain () with End_of_file -> ());
  Unix.close read_fd;
  (result, Buffer.contents buf)

let contains haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub haystack i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let test_lifecycle () =
  with_universe "cli-life.universe" (fun u ->
      check_int "spawn" 0 (sls [ "spawn"; "myapp"; "--app"; "counter"; "-u"; u ]);
      check_int "run" 0 (sls [ "run"; "--ms"; "40"; "-u"; u ]);
      let rc, out = capture (fun () -> sls [ "ps"; "-u"; u ]) in
      check_int "ps" 0 rc;
      check_bool "app listed" true (contains out "myapp");
      check_bool "group listed with a generation" true (contains out "PGID");
      check_int "checkpoint" 0 (sls [ "checkpoint"; "--name"; "m1"; "-u"; u ]);
      let rc, out = capture (fun () -> sls [ "fsck"; "-u"; u ]) in
      check_int "fsck" 0 rc;
      check_bool "store healthy" true (contains out "healthy");
      let rc, out = capture (fun () -> sls [ "gens"; "-u"; u ]) in
      check_int "gens" 0 rc;
      check_bool "named checkpoint listed" true (contains out "m1"))

let test_crash_survival () =
  with_universe "cli-crash.universe" (fun u ->
      check_int "spawn" 0 (sls [ "spawn"; "survivor"; "--app"; "counter"; "-u"; u ]);
      check_int "run" 0 (sls [ "run"; "--ms"; "30"; "-u"; u ]);
      check_int "crash" 0 (sls [ "crash"; "-u"; u ]);
      (* The next invocation boots from the device and the app is
         back, running. *)
      let rc, out = capture (fun () -> sls [ "ps"; "-u"; u ]) in
      check_int "ps after crash" 0 rc;
      check_bool "app resurrected" true (contains out "survivor");
      check_bool "and runnable" true (contains out "run"))

let test_send_recv_between_universes () =
  with_universe "cli-a.universe" (fun ua ->
      with_universe "cli-b.universe" (fun ub ->
          let image = tmp "cli-image.bin" in
          Fun.protect
            ~finally:(fun () -> if Sys.file_exists image then Sys.remove image)
            (fun () ->
              check_int "spawn" 0
                (sls [ "spawn"; "traveller"; "--app"; "counter"; "-u"; ua ]);
              check_int "run" 0 (sls [ "run"; "--ms"; "25"; "-u"; ua ]);
              check_int "send" 0 (sls [ "send"; image; "-u"; ua ]);
              check_bool "image written" true (Sys.file_exists image);
              check_int "recv into the other universe" 0
                (sls [ "recv"; image; "-u"; ub ]))))

let test_attach_detach () =
  with_universe "cli-attach.universe" (fun u ->
      check_int "spawn" 0 (sls [ "spawn"; "app"; "--app"; "counter"; "-u"; u ]);
      let rc, out = capture (fun () -> sls [ "attach"; "-u"; u ]) in
      check_int "attach" 0 rc;
      check_bool "memory backend listed" true (contains out "memory");
      let rc, out = capture (fun () -> sls [ "detach"; "-u"; u ]) in
      check_int "detach" 0 rc;
      check_bool "memory backend gone" true (not (contains out "memory")))

let test_errors () =
  check_bool "missing universe is an error" true
    (sls [ "ps"; "-u"; tmp "does-not-exist.universe" ] <> 0);
  with_universe "cli-err.universe" (fun u ->
      check_bool "unknown app kind rejected" true
        (sls [ "spawn"; "x"; "--app"; "nonsense"; "-u"; u ] <> 0);
      check_bool "send without checkpoint rejected" true
        (sls [ "send"; tmp "never.bin"; "-u"; u ] <> 0))

let test_recv_garbage_exits_2 () =
  with_universe "cli-garbage.universe" (fun u ->
      let bogus = tmp "cli-bogus.bin" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists bogus then Sys.remove bogus)
        (fun () ->
          let oc = open_out_bin bogus in
          output_string oc "not an aurora image at all";
          close_out oc;
          (* A malformed image is an operational failure (typed restore
             error), reported like a store failure: exit code 2. *)
          check_int "recv of garbage exits 2" 2 (sls [ "recv"; bogus; "-u"; u ])))

let test_stats () =
  with_universe "cli-stats.universe" (fun u ->
      check_int "spawn" 0 (sls [ "spawn"; "app"; "--app"; "counter"; "-u"; u ]);
      check_int "checkpoint" 0 (sls [ "checkpoint"; "-u"; u ]);
      let rc, out = capture (fun () -> sls [ "stats"; "-u"; u ]) in
      check_int "stats table" 0 rc;
      (* Metrics are per-boot: this invocation booted from the device
         and resurrected the app, so the restore counters are live. *)
      check_bool "restore counter reported" true (contains out "restore.count");
      check_bool "device gauges reported" true (contains out "dev.nvme");
      let rc, out = capture (fun () -> sls [ "stats"; "--json"; "-u"; u ]) in
      check_int "stats json" 0 rc;
      check_bool "json envelope" true (contains out "\"metrics\"");
      check_bool "sim-time stamp" true (contains out "\"at_us\""))

let test_trace () =
  with_universe "cli-trace.universe" (fun u ->
      let out_file = tmp "cli-trace.json" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists out_file then Sys.remove out_file)
        (fun () ->
          check_int "spawn" 0 (sls [ "spawn"; "app"; "--app"; "counter"; "-u"; u ]);
          check_int "run" 0 (sls [ "run"; "--ms"; "20"; "-u"; u ]);
          check_int "trace" 0 (sls [ "trace"; "--out"; out_file; "-u"; u ]);
          let ic = open_in out_file in
          let json = really_input_string ic (in_channel_length ic) in
          close_in ic;
          check_bool "chrome trace envelope" true (contains json "traceEvents");
          check_bool "checkpoint root span" true (contains json "\"ckpt\"");
          check_bool "quiesce phase span" true (contains json "ckpt.quiesce");
          check_bool "restore phase span" true (contains json "restore.pagein");
          check_bool "complete events" true (contains json "\"ph\": \"X\"")))

let test_top () =
  with_universe "cli-top.universe" (fun u ->
      check_int "spawn" 0 (sls [ "spawn"; "app"; "--app"; "counter"; "-u"; u ]);
      check_int "run" 0 (sls [ "run"; "--ms"; "20"; "-u"; u ]);
      let rc, out = capture (fun () -> sls [ "top"; "-u"; u ]) in
      check_int "top" 0 rc;
      (* The exact-sum cross-check runs inside the command: a non-zero
         exit would mean the rows don't add up. *)
      check_bool "group header" true (contains out "pgroup");
      check_bool "process table" true (contains out "PID");
      check_bool "shared metadata row" true (contains out "(shared)");
      check_bool "object table" true (contains out "OID");
      let rc, out = capture (fun () -> sls [ "top"; "--json"; "-u"; u ]) in
      check_int "top json" 0 rc;
      check_bool "json groups array" true (contains out "\"groups\"");
      check_bool "json sum cross-check flag" true (contains out "\"sums_exact\": true"))

let test_explain_and_diff () =
  with_universe "cli-explain.universe" (fun u ->
      check_int "spawn" 0 (sls [ "spawn"; "app"; "--app"; "counter"; "-u"; u ]);
      check_int "run" 0 (sls [ "run"; "--ms"; "20"; "-u"; u ]);
      check_int "checkpoint" 0 (sls [ "checkpoint"; "-u"; u ]);
      check_int "run more" 0 (sls [ "run"; "--ms"; "20"; "-u"; u ]);
      check_int "checkpoint again" 0 (sls [ "checkpoint"; "-u"; u ]);
      (* No generation argument: explain the latest. The command exits
         non-zero if the walked report disagrees with the allocator by
         more than 1%. *)
      let rc, out = capture (fun () -> sls [ "explain"; "-u"; u ]) in
      check_int "explain" 0 rc;
      check_bool "provenance section" true (contains out "written");
      check_bool "crosscheck verdict" true (contains out "crosscheck");
      let rc, out = capture (fun () -> sls [ "explain"; "--json"; "-u"; u ]) in
      check_int "explain json" 0 rc;
      check_bool "json provenance" true (contains out "\"provenance\"");
      check_bool "json crosscheck flag" true (contains out "\"within_1pct\": true");
      (* Pick two real generations off `gens` output for the diff. *)
      let _, gens_out = capture (fun () -> sls [ "gens"; "-u"; u ]) in
      let nums =
        List.filter_map int_of_string_opt
          (String.split_on_char ' '
             (String.map
                (fun c -> if c = '\n' || c = '\t' || c = ',' then ' ' else c)
                gens_out))
      in
      (match List.sort_uniq compare nums with
       | a :: (_ :: _ as rest) ->
         let b = List.nth rest (List.length rest - 1) in
         let ga = string_of_int a and gb = string_of_int b in
         let rc, out =
           capture (fun () -> sls [ "diff"; ga; gb; "-u"; u ])
         in
         check_int "diff" 0 rc;
         check_bool "diff header names both gens" true (contains out gb);
         let rc, out =
           capture (fun () -> sls [ "diff"; "--json"; ga; gb; "-u"; u ])
         in
         check_int "diff json" 0 rc;
         check_bool "json delta fields" true (contains out "\"pages_changed\"")
       | _ -> Alcotest.fail "gens did not list two generations");
      check_bool "diff of unknown generation fails" true
        (sls [ "diff"; "998"; "999"; "-u"; u ] <> 0);
      check_bool "explain of unknown generation fails" true
        (sls [ "explain"; "999"; "-u"; u ] <> 0))

let test_replicate_and_failover () =
  with_universe "cli-repl-src.universe" (fun u ->
      let dst = tmp "cli-repl-dst.universe" in
      if Sys.file_exists dst then Sys.remove dst;
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists dst then Sys.remove dst)
        (fun () ->
          check_int "spawn" 0 (sls [ "spawn"; "myapp"; "--app"; "counter"; "-u"; u ]);
          check_int "run" 0 (sls [ "run"; "--ms"; "30"; "-u"; u ]);
          (* Replicate over a lossy link: retransmission converges. *)
          let rc, out =
            capture (fun () ->
                sls [ "replicate"; dst; "--loss"; "0.2"; "-u"; u ])
          in
          check_int "replicate" 0 rc;
          check_bool "session converged" true (contains out "session idle");
          check_bool "lag zero" true (contains out "lag 0");
          check_bool "standby universe written" true (Sys.file_exists dst);
          (* JSON surface. *)
          let rc, out =
            capture (fun () ->
                sls [ "replicate"; tmp "cli-repl-dst2.universe"; "--json"; "-u"; u ])
          in
          if Sys.file_exists (tmp "cli-repl-dst2.universe") then
            Sys.remove (tmp "cli-repl-dst2.universe");
          check_int "replicate json" 0 rc;
          check_bool "json lag" true (contains out "\"lag\": 0");
          check_bool "json state" true (contains out "\"state\": \"idle\"");
          (* The primary keeps running (and checkpointing) after the
             replica was cut: failover must report the lost tail. *)
          check_int "run past replication" 0 (sls [ "run"; "--ms"; "20"; "-u"; u ]);
          let rc, out = capture (fun () -> sls [ "failover"; dst; "-u"; u ]) in
          check_int "failover" 0 rc;
          check_bool "promotion reported" true (contains out "promoted standby");
          check_bool "rpo reported" true (contains out "RPO:");
          check_bool "standby lagged" true (contains out "lost");
          (* The promoted universe is a working primary: the app is
             running and checkpointing on its own. *)
          let rc, out = capture (fun () -> sls [ "ps"; "-u"; dst ]) in
          check_int "ps on promoted" 0 rc;
          check_bool "app restored on promoted" true (contains out "myapp");
          check_int "promoted keeps checkpointing" 0
            (sls [ "run"; "--ms"; "20"; "-u"; dst ]);
          let rc, out = capture (fun () -> sls [ "failover"; "--json"; dst; "-u"; u ]) in
          check_int "failover json" 0 rc;
          check_bool "json rpo field" true (contains out "\"rpo_generations\"")))

let test_replicate_dead_link_exits_2 () =
  with_universe "cli-repl-dead.universe" (fun u ->
      let dst = tmp "cli-repl-dead-dst.universe" in
      if Sys.file_exists dst then Sys.remove dst;
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists dst then Sys.remove dst)
        (fun () ->
          check_int "spawn" 0 (sls [ "spawn"; "myapp"; "--app"; "counter"; "-u"; u ]);
          check_int "run" 0 (sls [ "run"; "--ms"; "20"; "-u"; u ]);
          (* A link that drops 99% of messages: the session gives up —
             a typed operational failure, exit 2. *)
          check_int "dead link exits 2" 2
            (sls [ "replicate"; dst; "--loss"; "0.99"; "-u"; u ]);
          (* Usage error: loss out of range. *)
          check_int "bad loss exits 1" 1
            (sls [ "replicate"; dst; "--loss"; "1.5"; "-u"; u ])))

let test_trace_empty_exits_2 () =
  with_universe "cli-trace-empty.universe" (fun u ->
      (* No running persisted apps: the cycle produces no spans — a
         typed operational failure, exit 2 (like a dead repl link). *)
      let out_file = tmp "cli-trace-empty.json" in
      check_int "empty span buffer exits 2" 2
        (sls [ "trace"; "--out"; out_file; "-u"; u ]);
      check_bool "no file written" false (Sys.file_exists out_file))

let test_postmortem_and_timeline () =
  with_universe "cli-forensics.universe" (fun u ->
      let dst = tmp "cli-forensics-standby.universe" in
      let tl = tmp "cli-forensics-timeline.json" in
      let cleanup () =
        List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ dst; tl ]
      in
      cleanup ();
      Fun.protect ~finally:cleanup (fun () ->
          check_int "spawn" 0
            (sls [ "spawn"; "worker"; "--interval"; "5"; "-u"; u ]);
          check_int "run" 0 (sls [ "run"; "--ms"; "50"; "-u"; u ]);
          check_int "replicate" 0
            (sls [ "replicate"; dst; "--loss"; "0.05"; "--seed"; "7"; "-u"; u ]);
          (* Before the crash: a clean shutdown, nothing pending. *)
          let rc, out = capture (fun () -> sls [ "postmortem"; "-u"; u ]) in
          check_int "clean postmortem" 0 rc;
          check_bool "clean shutdown" true (contains out "clean shutdown");
          check_bool "nothing pending" true (contains out "pending epochs: none");
          (* Die with the pipeline full: the next boot must name the
             in-flight epoch and the unacked generations. *)
          check_int "crash mid-pipeline" 0
            (sls [ "crash"; "--mid-pipeline"; "-u"; u ]);
          let rc, out = capture (fun () -> sls [ "postmortem"; "-u"; u ]) in
          check_int "postmortem" 0 rc;
          check_bool "crash reason" true (contains out "unclean shutdown");
          check_bool "pending epochs named" true
            (contains out "captured, never durable");
          let rc, out =
            capture (fun () -> sls [ "postmortem"; "--json"; "-u"; u ])
          in
          check_int "postmortem json" 0 rc;
          check_bool "sum checks pass" true
            (contains out "\"checks_ok\": true");
          check_bool "pending in json" true (contains out "\"pending_epochs\"");
          (* Merge both universes into one Chrome trace. *)
          let rc, out =
            capture (fun () -> sls [ "timeline"; dst; "--out"; tl; "-u"; u ])
          in
          check_int "timeline" 0 rc;
          check_bool "reports RPO" true (contains out "RPO");
          let ic = open_in tl in
          let json = really_input_string ic (in_channel_length ic) in
          close_in ic;
          check_bool "chrome trace envelope" true
            (contains json "\"traceEvents\"");
          check_bool "primary track" true (contains json "\"primary\"");
          check_bool "standby track" true (contains json "\"standby\"");
          check_bool "rpo annotation" true (contains json "failover edge");
          check_bool "correlation ids carried" true (contains json "\"corr\"")))

let test_timeline_without_replication_exits_2 () =
  with_universe "cli-tl-norepl.universe" (fun u ->
      with_universe "cli-tl-norepl-dst.universe" (fun dst ->
          check_int "spawn" 0
            (sls [ "spawn"; "worker"; "--interval"; "5"; "-u"; u ]);
          check_int "run" 0 (sls [ "run"; "--ms"; "20"; "-u"; u ]);
          let tl = tmp "cli-tl-norepl.json" in
          check_int "no replicated gens exits 2" 2
            (sls [ "timeline"; dst; "--out"; tl; "-u"; u ]);
          if Sys.file_exists tl then Sys.remove tl))

(* Every machine-readable output stays valid JSON whatever the
   application is called: UTF-8, quotes, a backslash, a TAB, a raw
   control byte and a byte that is not UTF-8 (printed as U+FFFD). *)
let test_json_any_app_name () =
  let name = "caf\xc3\xa9 \"q\" \\\t\x01\xff" in
  let printed = "caf\xc3\xa9 \"q\" \\\t\x01\xef\xbf\xbd" in
  with_universe "cli-json-name.universe" (fun u ->
      let dst = tmp "cli-json-name-standby.universe" in
      let trace = tmp "cli-json-name-trace.json" in
      let timeline = tmp "cli-json-name-timeline.json" in
      let cleanup () =
        List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ dst; trace; timeline ]
      in
      cleanup ();
      Fun.protect ~finally:cleanup (fun () ->
          check_int "spawn" 0 (sls [ "spawn"; name; "--app"; "counter"; "-u"; u ]);
          check_int "run" 0 (sls [ "run"; "--ms"; "30"; "-u"; u ]);
          check_int "checkpoint" 0 (sls [ "checkpoint"; "-u"; u ]);
          let json args =
            let what = String.concat " " args in
            let rc, out = capture (fun () -> sls (args @ [ "--json"; "-u"; u ])) in
            check_int what 0 rc;
            Strict_json.parse_exn ~what out
          in
          let file what path =
            let ic = open_in_bin path in
            let text = really_input_string ic (in_channel_length ic) in
            close_in ic;
            ignore (Strict_json.parse_exn ~what text)
          in
          let app_of doc = Strict_json.member "app" doc in
          (match Strict_json.member "groups" (json [ "top" ]) with
           | Aurora_simtime.Json.List [ group ] ->
             check_bool "top app name" true (app_of group = String printed)
           | _ -> Alcotest.fail "top: expected one group");
          ignore (json [ "stats" ]);
          let latest =
            match Strict_json.member "gen" (json [ "explain" ]) with
            | Int g -> g
            | _ -> Alcotest.fail "explain: no generation"
          in
          let _, gens_out = capture (fun () -> sls [ "gens"; "-u"; u ]) in
          let first_line = List.hd (String.split_on_char '\n' gens_out) in
          let older =
            List.filter_map int_of_string_opt
              (String.split_on_char ' ' (String.map (fun c -> if c = ',' then ' ' else c) first_line))
            |> List.filter (fun g -> g < latest)
          in
          (match List.rev older with
           | prev :: _ -> ignore (json [ "diff"; string_of_int prev; string_of_int latest ])
           | [] -> Alcotest.fail "gens listed a single generation");
          ignore (json [ "probe"; "dev.io agg count by op" ]);
          ignore (json [ "critical-path" ]);
          check_int "trace" 0 (sls [ "trace"; "--out"; trace; "-u"; u ]);
          file "sls trace" trace;
          check_bool "replicate app name" true (app_of (json [ "replicate"; dst ]) = String printed);
          check_int "timeline" 0 (sls [ "timeline"; dst; "--out"; timeline; "-u"; u ]);
          file "sls timeline" timeline;
          ignore (json [ "postmortem" ]);
          ignore (json [ "failover"; dst ])))

let test_failover_nothing_to_promote () =
  with_universe "cli-nopromote.universe" (fun u ->
      with_universe "cli-nopromote-dst.universe" (fun dst ->
          check_int "spawn" 0 (sls [ "spawn"; "myapp"; "--app"; "counter"; "-u"; u ]);
          check_int "run" 0 (sls [ "run"; "--ms"; "10"; "-u"; u ]);
          (* A plain universe with no replicated generations cannot be
             promoted. *)
          check_int "nothing to promote" 1 (sls [ "failover"; dst; "-u"; u ])))

let () =
  Alcotest.run "cli"
    [
      ( "sls",
        [
          Alcotest.test_case "init/spawn/run/ps/checkpoint/gens" `Quick test_lifecycle;
          Alcotest.test_case "apps survive power failure" `Quick test_crash_survival;
          Alcotest.test_case "send/recv between universes" `Quick
            test_send_recv_between_universes;
          Alcotest.test_case "attach/detach" `Quick test_attach_detach;
          Alcotest.test_case "error paths" `Quick test_errors;
          Alcotest.test_case "recv garbage exits 2" `Quick test_recv_garbage_exits_2;
          Alcotest.test_case "stats table + json" `Quick test_stats;
          Alcotest.test_case "trace export" `Quick test_trace;
          Alcotest.test_case "top attribution tables" `Quick test_top;
          Alcotest.test_case "explain + diff" `Quick test_explain_and_diff;
          Alcotest.test_case "replicate + failover" `Quick
            test_replicate_and_failover;
          Alcotest.test_case "replicate over a dead link exits 2" `Quick
            test_replicate_dead_link_exits_2;
          Alcotest.test_case "failover with nothing to promote" `Quick
            test_failover_nothing_to_promote;
          Alcotest.test_case "trace with empty span buffer exits 2" `Quick
            test_trace_empty_exits_2;
          Alcotest.test_case "postmortem + timeline forensics" `Quick
            test_postmortem_and_timeline;
          Alcotest.test_case "timeline without replication exits 2" `Quick
            test_timeline_without_replication_exits_2;
          Alcotest.test_case "valid JSON for any app name" `Quick test_json_any_app_name;
        ] );
    ]
