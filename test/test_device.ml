(* Tests for the device layer: profiles/cost model, block devices with
   write-cache crash semantics, async submission, and network links. *)

open Aurora_simtime
open Aurora_device

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let duration_t : Duration.t Alcotest.testable =
  Alcotest.testable Duration.pp Duration.equal

let content_t : Blockdev.content Alcotest.testable =
  let pp ppf = function
    | Blockdev.Data s -> Format.fprintf ppf "Data(%S)" s
    | Blockdev.Seed s -> Format.fprintf ppf "Seed(%Ld)" s
    | Blockdev.Zero -> Format.pp_print_string ppf "Zero"
  in
  Alcotest.testable pp ( = )

(* ------------------------------------------------------------------ *)
(* Profiles and transfer costs                                         *)
(* ------------------------------------------------------------------ *)

let test_transfer_cost_linear () =
  (* Cost of a 1 MiB read on Optane: 10us latency + 1MiB/2.5GiB/s. *)
  let cost = Profile.transfer_cost Profile.optane_900p ~op:`Read ~bytes:(1024 * 1024) in
  let expected_us = 10.0 +. (1024. *. 1024. /. (2.5 *. 1024. *. 1024. *. 1024.) *. 1e6) in
  Alcotest.(check (float 1.0)) "1MiB optane read us" expected_us (Duration.to_us cost)

let test_transfer_cost_zero_bytes () =
  let cost = Profile.transfer_cost Profile.optane_900p ~op:`Write ~bytes:0 in
  Alcotest.check duration_t "latency only" Profile.optane_900p.Profile.write_latency cost

let test_profile_ordering () =
  (* The paper's argument: flash latency now within two orders of
     magnitude of memory, spinning disk hopelessly behind. *)
  let lat p = Duration.to_ns p.Profile.read_latency in
  check_bool "dram < nvdimm" true (lat Profile.dram < lat Profile.nvdimm);
  check_bool "nvdimm < optane" true (lat Profile.nvdimm < lat Profile.optane_900p);
  check_bool "optane < nand" true (lat Profile.optane_900p < lat Profile.nand_ssd);
  check_bool "nand << disk" true (lat Profile.nand_ssd * 10 < lat Profile.spinning_disk);
  check_bool "optane within 2 orders of dram+slack" true
    (lat Profile.optane_900p <= lat Profile.dram * 150)

let test_costmodel_calibration () =
  (* Full-checkpoint COW arming of a 2 GiB working set should land in
     the ~5 ms regime the paper reports. *)
  let pages = 2 * 1024 * 1024 * 1024 / Blockdev.block_size in
  let arm = Costmodel.cow_arm ~pages in
  check_bool "cow arm ~5ms" true
    Duration.(arm > Duration.milliseconds 4 && arm < Duration.milliseconds 7);
  let map = Costmodel.pte_map ~pages in
  check_bool "pte map ~0.4ms" true
    Duration.(map > Duration.microseconds 200 && map < Duration.microseconds 600)

(* ------------------------------------------------------------------ *)
(* Blockdev                                                            *)
(* ------------------------------------------------------------------ *)

let mkdev ?capacity_blocks ?(profile = Profile.optane_900p) () =
  let clock = Clock.create () in
  (clock, Blockdev.create ?capacity_blocks ~clock ~profile "dev0")

let test_blockdev_read_write () =
  let _, dev = mkdev () in
  Blockdev.write dev 3 (Blockdev.Data "hello");
  Blockdev.write dev 9 (Blockdev.Seed 42L);
  Alcotest.check content_t "data" (Blockdev.Data "hello") (Blockdev.read dev 3);
  Alcotest.check content_t "seed" (Blockdev.Seed 42L) (Blockdev.read dev 9);
  Alcotest.check content_t "unwritten" Blockdev.Zero (Blockdev.read dev 100)

let test_blockdev_charges_clock () =
  let clock, dev = mkdev () in
  Blockdev.write dev 0 (Blockdev.Seed 1L);
  let after_write = Clock.now clock in
  check_bool "write cost >= latency" true
    Duration.(after_write >= Profile.optane_900p.Profile.write_latency);
  ignore (Blockdev.read dev 0);
  check_bool "read advanced further" true Duration.(Clock.now clock > after_write)

let test_blockdev_batched_cheaper () =
  (* One 64-block command pays latency once; 64 single commands pay it
     64 times. *)
  let clock1, dev1 = mkdev () in
  let contents = Array.init 64 (fun i -> Blockdev.Seed (Int64.of_int i)) in
  Blockdev.write_many dev1 (Array.init 64 Fun.id) contents;
  let batched = Clock.now clock1 in
  let clock2, dev2 = mkdev () in
  Array.iteri (fun i c -> Blockdev.write dev2 i c) contents;
  check_bool "batch faster" true Duration.(batched < Clock.now clock2)

let test_blockdev_capacity () =
  let _, dev = mkdev ~capacity_blocks:10 () in
  Blockdev.write dev 9 (Blockdev.Seed 1L);
  check_bool "over capacity rejected" true
    (try
       Blockdev.write dev 10 (Blockdev.Seed 1L);
       false
     with Invalid_argument _ -> true)

let test_blockdev_oversized_data () =
  let _, dev = mkdev () in
  check_bool "oversized rejected" true
    (try
       Blockdev.write dev 0 (Blockdev.Data (String.make 5000 'x'));
       false
     with Invalid_argument _ -> true)

let test_crash_volatile_cache () =
  (* NAND profile: unflushed writes vanish on crash. *)
  let _, dev = mkdev ~profile:Profile.nand_ssd () in
  Blockdev.write dev 0 (Blockdev.Data "durable");
  Blockdev.flush dev;
  Blockdev.write dev 0 (Blockdev.Data "lost");
  Blockdev.write dev 1 (Blockdev.Data "also lost");
  Blockdev.crash dev;
  Alcotest.check content_t "reverted" (Blockdev.Data "durable") (Blockdev.read dev 0);
  Alcotest.check content_t "never durable" Blockdev.Zero (Blockdev.read dev 1)

let test_crash_nonvolatile_cache () =
  (* Optane: completed writes survive without an explicit flush. *)
  let _, dev = mkdev ~profile:Profile.optane_900p () in
  Blockdev.write dev 0 (Blockdev.Data "survives");
  Blockdev.crash dev;
  Alcotest.check content_t "survived" (Blockdev.Data "survives") (Blockdev.read dev 0)

let test_async_write_completion () =
  let clock, dev = mkdev () in
  let completion = Blockdev.write_sorted dev [| 0 |] [| Blockdev.Seed 7L |] in
  check_bool "async does not advance clock" true
    Duration.(Clock.now clock < completion);
  Blockdev.await dev completion;
  Alcotest.check duration_t "await advanced to completion" completion (Clock.now clock);
  Alcotest.check content_t "content visible" (Blockdev.Seed 7L) (Blockdev.read dev 0)

let test_async_crash_before_completion () =
  (* Even on a power-loss-protected device, a write that has not
     reached the device by crash time is gone. *)
  let _, dev = mkdev ~profile:Profile.optane_900p () in
  Blockdev.write dev 0 (Blockdev.Data "old");
  let _completion = Blockdev.write_sorted dev [| 0 |] [| Blockdev.Data "new" |] in
  Blockdev.crash dev; (* clock never advanced: write still in flight *)
  Alcotest.check content_t "in-flight dropped" (Blockdev.Data "old") (Blockdev.read dev 0)

let test_async_crash_after_completion () =
  let _, dev = mkdev ~profile:Profile.optane_900p () in
  let completion = Blockdev.write_sorted dev [| 0 |] [| Blockdev.Data "new" |] in
  Blockdev.await dev completion;
  Blockdev.crash dev;
  Alcotest.check content_t "completed write durable on optane"
    (Blockdev.Data "new") (Blockdev.read dev 0)

let test_flush_makes_durable () =
  let _, dev = mkdev ~profile:Profile.nand_ssd () in
  ignore (Blockdev.write_sorted dev [| 0 |] [| Blockdev.Data "x" |]);
  Blockdev.flush dev;
  Blockdev.crash dev;
  Alcotest.check content_t "flushed write survives" (Blockdev.Data "x") (Blockdev.read dev 0)

(* Blocks far past the device's first thousand land, settle, crash and
   flush like low ones, on both kinds of write cache. *)
let test_writes_past_initial_array () =
  List.iter
    (fun profile ->
      let volatile = profile.Profile.volatile_cache in
      let _, dev = mkdev ~profile () in
      let seed i = Blockdev.Seed (Int64.of_int i) in
      let settled = [ 1023; 1024; 5_000; 70_000 ] in
      Blockdev.await dev
        (Blockdev.write_sorted dev (Array.of_list settled)
           (Array.of_list (List.map seed settled)));
      List.iter
        (fun i -> Alcotest.check content_t "readable after settle" (seed i) (Blockdev.peek dev i))
        settled;
      ignore
        (Blockdev.write_sorted dev [| 5_000; 200_000 |] [| Blockdev.Seed 1L; Blockdev.Seed 2L |]);
      Alcotest.check content_t "unsettled write visible" (Blockdev.Seed 2L)
        (Blockdev.peek dev 200_000);
      Blockdev.crash dev;
      List.iter
        (fun i ->
          Alcotest.check content_t "settled write after crash"
            (if volatile then Blockdev.Zero else seed i)
            (Blockdev.peek dev i))
        settled;
      Alcotest.check content_t "unsettled write dropped" Blockdev.Zero
        (Blockdev.peek dev 200_000))
    [ Profile.optane_900p; Profile.nand_ssd ]

let test_flush_copies_current_to_durable () =
  let _, dev = mkdev ~profile:Profile.nand_ssd () in
  let writes =
    [ (0, Blockdev.Data "a"); (3, Blockdev.Seed 3L); (2_000, Blockdev.Zero);
      (9_000, Blockdev.Seed 9L); (40_000, Blockdev.Data "far") ]
  in
  Blockdev.write_many dev
    (Array.of_list (List.map fst writes))
    (Array.of_list (List.map snd writes));
  check_int "used blocks count only non-Zero content" 4 (Blockdev.used_blocks dev);
  Blockdev.write dev 3 Blockdev.Zero;
  check_int "a Zero write frees the block's use" 3 (Blockdev.used_blocks dev);
  Blockdev.flush dev;
  Blockdev.crash dev;
  List.iter
    (fun (i, c) ->
      Alcotest.check content_t "durable after flush"
        (if i = 3 then Blockdev.Zero else c)
        (Blockdev.peek dev i))
    writes;
  check_int "used blocks survive" 3 (Blockdev.used_blocks dev)

let test_unwritten_block_reads_zero () =
  let _, dev = mkdev () in
  Blockdev.write dev 7 (Blockdev.Seed 7L);
  let size () = String.length (Marshal.to_string dev []) in
  let before = size () in
  Alcotest.check content_t "peek far past the array" Blockdev.Zero (Blockdev.peek dev 1_000_000);
  Alcotest.check content_t "read far past the array" Blockdev.Zero (Blockdev.read dev 2_000_000);
  check_int "reading does not grow the device" before (size ());
  check_int "used blocks" 1 (Blockdev.used_blocks dev)

let test_stats_counting () =
  let _, dev = mkdev () in
  Blockdev.write_many dev [| 0; 1 |] [| Blockdev.Seed 1L; Blockdev.Seed 2L |];
  ignore (Blockdev.read dev 0);
  let done_at = Blockdev.queue_batch_read dev ~blocks:2 in
  Alcotest.check content_t "batched read" (Blockdev.Seed 2L) (Blockdev.batch_content dev 1);
  Blockdev.await dev done_at;
  let st = Blockdev.stats dev in
  check_int "write cmds" 1 st.Blockdev.writes;
  check_int "blocks written" 2 st.Blockdev.blocks_written;
  check_int "read cmds" 2 st.Blockdev.reads;
  check_int "blocks read" 3 st.Blockdev.blocks_read;
  check_int "used blocks" 2 (Blockdev.used_blocks dev);
  Blockdev.reset_stats dev;
  check_int "reset" 0 (Blockdev.stats dev).Blockdev.writes

let prop_blockdev_read_back =
  QCheck.Test.make ~name:"blockdev reads back last write"
    QCheck.(list_of_size Gen.(int_range 1 30) (pair (int_bound 50) int64))
    (fun writes ->
      let _, dev = mkdev () in
      List.iter (fun (i, s) -> Blockdev.write dev i (Blockdev.Seed s)) writes;
      (* last write to each index wins *)
      let final = Hashtbl.create 16 in
      List.iter (fun (i, s) -> Hashtbl.replace final i s) writes;
      Hashtbl.fold
        (fun i s acc -> acc && Blockdev.read dev i = Blockdev.Seed s)
        final true)

let prop_crash_preserves_durable =
  QCheck.Test.make ~name:"crash never corrupts flushed data"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 20) (pair (int_bound 20) int64))
        (list_of_size Gen.(int_range 0 20) (pair (int_bound 20) int64)))
    (fun (before_flush, after_flush) ->
      let _, dev = mkdev ~profile:Profile.nand_ssd () in
      List.iter (fun (i, s) -> Blockdev.write dev i (Blockdev.Seed s)) before_flush;
      Blockdev.flush dev;
      let durable = Hashtbl.create 16 in
      List.iter (fun (i, s) -> Hashtbl.replace durable i s) before_flush;
      List.iter (fun (i, s) -> Blockdev.write dev i (Blockdev.Seed s)) after_flush;
      Blockdev.crash dev;
      Hashtbl.fold
        (fun i s acc -> acc && Blockdev.read dev i = Blockdev.Seed s)
        durable true)


let prop_async_completions_monotone =
  QCheck.Test.make ~name:"async completions are fifo-monotone"
    QCheck.(list_of_size Gen.(int_range 1 20) (int_range 1 50))
    (fun batch_sizes ->
      let _, dev = mkdev () in
      let completions =
        List.mapi
          (fun bi n ->
            Blockdev.write_sorted dev
              (Array.init n (fun i -> 100 + (bi * 64) + i))
              (Array.make n (Blockdev.Seed 1L)))
          batch_sizes
      in
      let rec monotone = function
        | a :: (b :: _ as rest) -> Duration.(a <= b) && monotone rest
        | _ -> true
      in
      monotone completions)

(* ------------------------------------------------------------------ *)
(* Devarray                                                            *)
(* ------------------------------------------------------------------ *)

let mkarr ?(stripes = 4) ?(profile = Profile.optane_900p) () =
  let clock = Clock.create () in
  (clock, Devarray.create ~stripes ~clock ~profile "arr")

let test_devarray_mapping_bijection () =
  let _, arr = mkarr ~stripes:4 () in
  let seen = Hashtbl.create 1024 in
  for b = 0 to 1023 do
    let d, phys = Devarray.locate arr b in
    check_bool "device in range" true (d >= 0 && d < 4);
    check_int "roundtrip" b (Devarray.logical arr ~dev:d ~phys);
    Hashtbl.replace seen (d, phys) ()
  done;
  check_int "no collisions" 1024 (Hashtbl.length seen)

let test_devarray_single_stripe_identity () =
  let _, arr = mkarr ~stripes:1 () in
  for b = 0 to 100 do
    Alcotest.(check (pair int int)) "identity" (0, b) (Devarray.locate arr b)
  done

let test_devarray_read_write_roundtrip () =
  let _, arr = mkarr ~stripes:4 () in
  for b = 0 to 63 do
    Devarray.write arr b (Blockdev.Seed (Int64.of_int (b * 3)))
  done;
  for b = 0 to 63 do
    Alcotest.check content_t "readback"
      (Blockdev.Seed (Int64.of_int (b * 3)))
      (Devarray.read arr b)
  done

let test_devarray_stats_sum () =
  let _, arr = mkarr ~stripes:4 () in
  Devarray.await arr
    (Devarray.write_async_arr arr (Array.init 64 Fun.id) (Array.make 64 (Blockdev.Seed 1L)));
  ignore (Devarray.read_many_arr arr (Array.init 10 Fun.id));
  let agg = Devarray.stats arr in
  let per = Devarray.device_stats arr in
  let sum f = Array.fold_left (fun acc st -> acc + f st) 0 per in
  check_int "writes sum" agg.Blockdev.writes (sum (fun s -> s.Blockdev.writes));
  check_int "blocks_written sum" agg.Blockdev.blocks_written
    (sum (fun s -> s.Blockdev.blocks_written));
  check_int "reads sum" agg.Blockdev.reads (sum (fun s -> s.Blockdev.reads));
  check_int "blocks_read sum" agg.Blockdev.blocks_read
    (sum (fun s -> s.Blockdev.blocks_read));
  check_int "all 64 blocks landed" 64 agg.Blockdev.blocks_written;
  (* Round-robin spreads a contiguous run evenly. *)
  Array.iter (fun st -> check_int "balanced" 16 st.Blockdev.blocks_written) per

let test_devarray_flush_scales () =
  (* A contiguous 4096-block extent: the 4-stripe array drains in ~1/4
     the single-device simulated time (one extent per device, the
     transfer is bandwidth-dominated). *)
  let flush_time stripes =
    let clock = Clock.create () in
    let arr = Devarray.create ~stripes ~clock ~profile:Profile.optane_900p "arr" in
    let done_at =
      Devarray.write_async_arr arr (Array.init 4096 Fun.id)
        (Array.init 4096 (fun i -> Blockdev.Seed (Int64.of_int i)))
    in
    Duration.to_ns (Duration.sub done_at (Clock.now clock))
  in
  let t1 = flush_time 1 and t4 = flush_time 4 in
  let ratio = float_of_int t1 /. float_of_int t4 in
  check_bool (Printf.sprintf "4 stripes ~4x faster (got %.2fx)" ratio) true
    (ratio > 3.5 && ratio <= 4.5)

let prop_devarray_mapping_bijection =
  QCheck.Test.make ~name:"stripe mapping round-trips for any width"
    QCheck.(pair (int_range 1 8) (int_bound 100_000))
    (fun (stripes, b) ->
      let clock = Clock.create () in
      let arr = Devarray.create ~stripes ~clock ~profile:Profile.optane_900p "arr" in
      let d, phys = Devarray.locate arr b in
      d >= 0 && d < stripes && Devarray.logical arr ~dev:d ~phys = b)

(* The list path that submitted an array's writes before they travelled
   as columns, kept as the reference for [Devarray.write_async_arr]:
   split the writes per device in submission order, stable-sort each
   device's share on the physical block, and start a new transfer
   wherever a block is more than one past the previous one. Each
   reference device draws its faults from its own injector, in the
   sorted order, and schedules the submission on its own queue. *)
module Ref_submit = struct
  type dev = {
    name : string;
    sched : Iosched.t;
    inj : Fault.injector option;
    current : (int, Blockdev.content) Hashtbl.t;
    durable : (int, Blockdev.content) Hashtbl.t;
    mutable pending : (Duration.t * (int * Blockdev.content) list) list; (* newest first *)
    mutable commands : int;
    mutable blocks : int;
  }

  let partition ~stripes writes =
    let per_dev = Array.make stripes [] in
    List.iter
      (fun (b, c) ->
        let d = b mod stripes in
        per_dev.(d) <- (b / stripes, c) :: per_dev.(d))
      writes;
    Array.map List.rev per_dev

  let extents_of writes =
    List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) writes
    |> List.fold_left
         (fun runs (phys, c) ->
           match runs with
           | ((prev, _) :: _ as run) :: rest when phys <= prev + 1 -> ((phys, c) :: run) :: rest
           | _ -> [ (phys, c) ] :: runs)
         []
    |> List.rev_map List.rev

  let corrupt inj = function
    | Blockdev.Data s when String.length s > 0 ->
      let b = Bytes.of_string s in
      let pos = Fault.pick inj (Bytes.length b) in
      let bit = Fault.pick inj 8 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
      Blockdev.Data (Bytes.to_string b)
    | Blockdev.Data _ -> Blockdev.Data "\x01"
    | Blockdev.Seed s -> Blockdev.Seed (Int64.logxor s (Int64.shift_left 1L (Fault.pick inj 63)))
    | Blockdev.Zero -> Blockdev.Seed 0x00DEAD_BEEFL

  (* The controller's retries and silent corruption, write by write. *)
  let apply_faults dev ~profile writes =
    match dev.inj with
    | None -> (writes, Duration.zero)
    | Some inj ->
      let retry = ref Duration.zero in
      let writes =
        List.map
          (fun (phys, c) ->
            let rec attempt n =
              if Fault.draw_transient_write inj then begin
                if n >= 4 then
                  raise (Fault.Io_error (Fault.Transient { dev = dev.name; op = `Write; phys }));
                retry :=
                  Duration.add !retry (Duration.scale profile.Profile.write_latency (1 lsl n));
                attempt (n + 1)
              end
            in
            attempt 0;
            Fault.clear_latent inj phys;
            if Fault.draw_corruption inj then (phys, corrupt inj c) else (phys, c))
          writes
      in
      (writes, !retry)

  (* One device's share: its completion, or [None] when it got no
     write. *)
  let submit dev ~profile ~now writes =
    if writes = [] then None
    else begin
      let runs = extents_of writes in
      let runs, retry =
        List.fold_left
          (fun (acc, retry) run ->
            let run, r = apply_faults dev ~profile run in
            (run :: acc, Duration.add retry r))
          ([], Duration.zero) runs
      in
      let runs = List.rev runs in
      let cost =
        List.fold_left
          (fun acc run ->
            Duration.add acc
              (Profile.transfer_cost profile ~op:`Write
                 ~bytes:(List.length run * Blockdev.block_size)))
          retry runs
      in
      let writes = List.concat runs in
      let n = List.length writes in
      let _, completion =
        Iosched.schedule dev.sched ~now ~cls:Iosched.Flush ~cost ~blocks:n
      in
      dev.commands <- dev.commands + List.length runs;
      dev.blocks <- dev.blocks + n;
      List.iter (fun (phys, c) -> Hashtbl.replace dev.current phys c) writes;
      dev.pending <- (completion, writes) :: dev.pending;
      Some completion
    end

  let settle dev ~profile ~now =
    let done_, still = List.partition (fun (at, _) -> Duration.(at <= now)) dev.pending in
    if not profile.Profile.volatile_cache then
      List.iter
        (fun (_, writes) -> List.iter (fun (phys, c) -> Hashtbl.replace dev.durable phys c) writes)
        (List.rev done_);
    dev.pending <- still
end

type submit_case = {
  stripes : int;
  wdrr : bool;
  volatile : bool;
  fault_seed : int64 option;
  rounds : (int * (int * Blockdev.content) list) list; (* gap before, in us; writes *)
  settle_gap : int;
}

let show_content = function
  | Blockdev.Data s -> Printf.sprintf "Data %S" s
  | Blockdev.Seed s -> Printf.sprintf "Seed %Ld" s
  | Blockdev.Zero -> "Zero"

let show_submit_case c =
  Printf.sprintf "stripes=%d wdrr=%b volatile=%b faults=%s settle=+%dus rounds=[%s]" c.stripes
    c.wdrr c.volatile
    (match c.fault_seed with Some s -> Int64.to_string s | None -> "none")
    c.settle_gap
    (String.concat "; "
       (List.map
          (fun (gap, ws) ->
            Printf.sprintf "+%dus %s" gap
              (String.concat ","
                 (List.map (fun (b, c) -> Printf.sprintf "%d:%s" b (show_content c)) ws)))
          c.rounds))

let gen_submit_case =
  let open QCheck.Gen in
  let content =
    frequency
      [ (4, map (fun s -> Blockdev.Seed (Int64.of_int s)) (int_bound 1_000));
        (1, map (fun s -> Blockdev.Data s) (string_size ~gen:printable (int_range 1 6))) ]
  in
  (* Mostly a few dozen blocks, so writes repeat and interleave; some
     far apart, so runs break. *)
  let block = frequency [ (4, int_bound 48); (1, int_range 48 600) ] in
  let writes =
    frequency
      [ (3, list_size (int_range 0 40) (pair block content));
        (* Already in order, which a device takes without sorting. *)
        (1, map (List.sort (fun (a, _) (b, _) -> Int.compare a b))
              (list_size (int_range 1 40) (pair block content))) ]
  in
  let* stripes = int_range 1 4 in
  let* wdrr = bool in
  let* volatile = bool in
  let* fault_seed = opt (map Int64.of_int nat) in
  let* rounds = list_size (int_range 1 4) (pair (int_bound 300) writes) in
  let* settle_gap = int_bound 600 in
  return { stripes; wdrr; volatile; fault_seed; rounds; settle_gap }

let prop_column_submission_matches_list_path =
  QCheck.Test.make ~name:"column submission matches the list path" ~count:300
    (QCheck.make ~print:show_submit_case gen_submit_case)
    (fun c ->
      let profile = if c.volatile then Profile.nand_ssd else Profile.optane_900p in
      let sched = if c.wdrr then Iosched.default_wdrr else Iosched.Fifo in
      let plan =
        Option.map (fun seed -> Fault.plan ~seed ~transient_write:0.2 ~corruption:0.2 ()) c.fault_seed
      in
      let clock = Clock.create () in
      let arr = Devarray.create ~sched ~stripes:c.stripes ?faults:plan ~clock ~profile "arr" in
      let devs = Devarray.devices arr in
      let refs =
        Array.init c.stripes (fun d ->
            { Ref_submit.name = Printf.sprintf "arr.%d" d; sched = Iosched.create sched;
              inj = Option.map (fun p -> Fault.injector ~dev_index:d p) plan;
              current = Hashtbl.create 16; durable = Hashtbl.create 16; pending = [];
              commands = 0; blocks = 0 })
      in
      let fail fmt = Printf.ksprintf (fun m -> QCheck.Test.fail_reportf "%s" m) fmt in
      let check_contents what table =
        Array.iteri
          (fun d (r : Ref_submit.dev) ->
            Hashtbl.iter
              (fun phys _ ->
                let want = Option.value ~default:Blockdev.Zero (Hashtbl.find_opt table.(d) phys) in
                let got = Blockdev.peek devs.(d) phys in
                if got <> want then
                  fail "%s: device %d block %d holds %s, the list path %s" what d phys
                    (show_content got) (show_content want))
              r.Ref_submit.current)
          refs
      in
      let transient = function
        | Fault.Io_error (Fault.Transient { phys; _ }) -> Some phys
        | _ -> None
      in
      let rec run = function
        | [] -> true
        | (gap, writes) :: rest -> (
          Clock.advance clock (Duration.microseconds gap);
          let now = Clock.now clock in
          let blocks = Array.of_list (List.map fst writes) in
          let contents = Array.of_list (List.map snd writes) in
          let got =
            match Devarray.write_async_arr arr blocks contents with
            | at -> Ok at
            | exception e -> Error e
          in
          let want =
            match
              Array.mapi
                (fun d w -> Ref_submit.submit refs.(d) ~profile ~now w)
                (Ref_submit.partition ~stripes:c.stripes writes)
            with
            | completions ->
              let last = Array.fold_left (fun acc o -> Option.fold ~none:acc ~some:(Duration.max acc) o) Duration.zero completions in
              if Duration.equal last Duration.zero then
                Ok
                  (Array.fold_left
                     (fun acc r -> Duration.max acc (Iosched.horizon r.Ref_submit.sched))
                     now refs)
              else Ok last
            | exception e -> Error e
          in
          match (got, want) with
          | Error e, Error e' ->
            (* Retries ran out on the same block: on both sides the
               devices before it took their share and the rest took
               none. *)
            if transient e = None || transient e <> transient e' then
              fail "raised %s, the list path %s" (Printexc.to_string e) (Printexc.to_string e');
            run rest
          | Error e, Ok _ -> fail "raised %s, the list path did not" (Printexc.to_string e)
          | Ok _, Error e -> fail "the list path raised %s" (Printexc.to_string e)
          | Ok at, Ok at' ->
            if not (Duration.equal at at') then
              fail "completion %d ns, the list path %d ns" (Duration.to_ns at) (Duration.to_ns at');
            Array.iteri
              (fun d (r : Ref_submit.dev) ->
                let st = Blockdev.stats devs.(d) in
                if st.Blockdev.writes <> r.commands then
                  fail "device %d: %d commands, the list path %d" d st.Blockdev.writes r.commands;
                if st.Blockdev.blocks_written <> r.blocks then
                  fail "device %d: %d blocks written, the list path %d" d st.Blockdev.blocks_written
                    r.blocks;
                if not (Duration.equal (Blockdev.busy_until devs.(d)) (Iosched.horizon r.sched)) then
                  fail "device %d: queue drains at %d ns, the list path's at %d ns" d
                    (Duration.to_ns (Blockdev.busy_until devs.(d)))
                    (Duration.to_ns (Iosched.horizon r.sched));
                match (Blockdev.faults devs.(d), r.inj) with
                | Some inj, Some inj' ->
                  if Fault.stats inj <> Fault.stats inj' then fail "device %d: fault draws differ" d
                | None, None -> ()
                | _ -> fail "device %d: fault injectors differ" d)
              refs;
            check_contents "after submission" (Array.map (fun r -> r.Ref_submit.current) refs);
            run rest)
      in
      run c.rounds
      && begin
        Devarray.await arr (Duration.add (Clock.now clock) (Duration.microseconds c.settle_gap));
        let now = Clock.now clock in
        Array.iter (fun r -> Ref_submit.settle r ~profile ~now) refs;
        check_contents "after settle" (Array.map (fun r -> r.Ref_submit.current) refs);
        Devarray.crash arr;
        check_contents "after crash" (Array.map (fun r -> r.Ref_submit.durable) refs);
        true
      end)

(* ------------------------------------------------------------------ *)
(* Netlink                                                             *)
(* ------------------------------------------------------------------ *)

let mklink () =
  let clock = Clock.create () in
  (clock, Netlink.create ~clock ~profile:Profile.net_10gbe ())

let test_netlink_delivery () =
  let clock, link = mklink () in
  let arrival = Netlink.send link ~from_:`A "ping" in
  check_bool "not yet arrived" true (Netlink.recv link ~side:`B = None);
  Clock.advance_to clock arrival;
  Alcotest.(check (option string)) "arrived" (Some "ping") (Netlink.recv link ~side:`B);
  Alcotest.(check (option string)) "queue drained" None (Netlink.recv link ~side:`B)

let test_netlink_blocking_recv () =
  let clock, link = mklink () in
  let arrival = Netlink.send link ~from_:`A "data" in
  Alcotest.(check (option string)) "blocking recv" (Some "data")
    (Netlink.recv_blocking link ~side:`B);
  Alcotest.check duration_t "clock advanced to arrival" arrival (Clock.now clock);
  Alcotest.(check (option string)) "empty" None (Netlink.recv_blocking link ~side:`B)

let test_netlink_ordering_and_bandwidth () =
  let _, link = mklink () in
  let big = String.make 1_000_000 'x' in
  let a1 = Netlink.send link ~from_:`A big in
  let a2 = Netlink.send link ~from_:`A "tail" in
  (* Second message serializes behind the first on the wire. *)
  check_bool "fifo arrival order" true Duration.(a1 < a2);
  check_int "pending" 2 (Netlink.pending link ~side:`B);
  check_int "bytes" (1_000_000 + 4) (Netlink.bytes_sent link)

let test_netlink_directions_independent () =
  let clock, link = mklink () in
  let a = Netlink.send link ~from_:`A "to-b" in
  let b = Netlink.send link ~from_:`B "to-a" in
  Clock.advance_to clock (Duration.max a b);
  Alcotest.(check (option string)) "b got" (Some "to-b") (Netlink.recv link ~side:`B);
  Alcotest.(check (option string)) "a got" (Some "to-a") (Netlink.recv link ~side:`A)

(* --- network fault plans --- *)

let mkfaulty_link ?seed ?drop ?duplicate ?reorder ?corrupt ?partitions () =
  let clock = Clock.create () in
  let faults = Netlink.fault_plan ?seed ?drop ?duplicate ?reorder ?corrupt ?partitions () in
  (clock, Netlink.create ~clock ~profile:Profile.net_10gbe ~faults ())

let drain clock link ~side =
  (* Everything in flight, in arrival order. *)
  let rec loop acc =
    match Netlink.next_arrival link ~side with
    | None -> List.rev acc
    | Some at ->
      Clock.advance_to clock at;
      (match Netlink.recv link ~side with
       | Some p -> loop (p :: acc)
       | None -> Alcotest.fail "arrived message not delivered")
  in
  loop []

let test_netlink_drop_all () =
  let clock, link = mkfaulty_link ~drop:1.0 () in
  for i = 0 to 9 do ignore (Netlink.send link ~from_:`A (string_of_int i)) done;
  Alcotest.(check (list string)) "nothing delivered" [] (drain clock link ~side:`B);
  let st = Netlink.stats link ~from_:`A in
  check_int "all counted dropped" 10 st.Netlink.dropped;
  check_int "all counted sent" 10 st.Netlink.msgs_sent;
  check_int "none delivered" 0 st.Netlink.msgs_delivered

let test_netlink_duplicate_all () =
  let clock, link = mkfaulty_link ~duplicate:1.0 () in
  ignore (Netlink.send link ~from_:`A "once");
  Alcotest.(check (list string)) "delivered twice" [ "once"; "once" ]
    (drain clock link ~side:`B);
  check_int "counted" 1 (Netlink.stats link ~from_:`A).Netlink.duplicated

let test_netlink_corrupt_preserves_length () =
  let clock, link = mkfaulty_link ~corrupt:1.0 () in
  let payload = String.make 64 'a' in
  ignore (Netlink.send link ~from_:`A payload);
  (match drain clock link ~side:`B with
   | [ got ] ->
     check_int "length preserved" (String.length payload) (String.length got);
     check_bool "payload altered" true (got <> payload);
     (* Exactly one bit differs. *)
     let diff = ref 0 in
     String.iteri
       (fun i c ->
         let x = Char.code c lxor Char.code payload.[i] in
         let rec popcount n = if n = 0 then 0 else (n land 1) + popcount (n lsr 1) in
         diff := !diff + popcount x)
       got;
     check_int "single bit flip" 1 !diff
   | l -> Alcotest.fail (Printf.sprintf "expected 1 delivery, got %d" (List.length l)));
  check_int "counted" 1 (Netlink.stats link ~from_:`A).Netlink.corrupted

let test_netlink_reorder_overtakes () =
  (* With reorder at 1.0 every message is held back; send two, the
     second's hold is shorter than the first's head start only
     sometimes — instead check the counter fires and that delivery
     order can differ from send order under a seed where it does. *)
  let clock, link = mkfaulty_link ~seed:7L ~reorder:1.0 () in
  for i = 0 to 7 do ignore (Netlink.send link ~from_:`A (string_of_int i)) done;
  let got = drain clock link ~side:`B in
  check_int "all delivered" 8 (List.length got);
  check_int "reorders counted" 8 (Netlink.stats link ~from_:`A).Netlink.reordered;
  check_bool "delivery order differs from send order" true
    (got <> List.init 8 string_of_int)

let test_netlink_partition_window () =
  let clock, link =
    mkfaulty_link
      ~partitions:[ (Duration.milliseconds 1, Duration.milliseconds 2) ] ()
  in
  ignore (Netlink.send link ~from_:`A "before");
  Clock.advance_to clock (Duration.milliseconds 1);
  ignore (Netlink.send link ~from_:`A "during");
  check_bool "partition visible" true (Netlink.in_partition link (Clock.now clock));
  Clock.advance_to clock (Duration.milliseconds 2);
  ignore (Netlink.send link ~from_:`A "after");
  Alcotest.(check (list string)) "cut window lost its message"
    [ "before"; "after" ] (drain clock link ~side:`B);
  check_int "partition drop counted" 1
    (Netlink.stats link ~from_:`A).Netlink.partition_drops

let test_netlink_fault_determinism () =
  let run () =
    let clock, link =
      mkfaulty_link ~seed:99L ~drop:0.3 ~duplicate:0.2 ~reorder:0.2 ~corrupt:0.2 ()
    in
    for i = 0 to 63 do ignore (Netlink.send link ~from_:`A (Printf.sprintf "m%02d" i)) done;
    (drain clock link ~side:`B, Netlink.stats link ~from_:`A)
  in
  let d1, s1 = run () and d2, s2 = run () in
  check_bool "identical deliveries" true (d1 = d2);
  check_bool "identical stats" true (s1 = s2);
  check_bool "every fault kind fired" true
    (s1.Netlink.dropped > 0 && s1.Netlink.duplicated > 0
     && s1.Netlink.reordered > 0 && s1.Netlink.corrupted > 0)

let test_netlink_byte_counters () =
  let clock, link = mkfaulty_link ~drop:0.5 ~seed:3L () in
  for _ = 0 to 19 do ignore (Netlink.send link ~from_:`A "12345") done;
  let delivered = drain clock link ~side:`B in
  let st = Netlink.stats link ~from_:`A in
  check_int "bytes offered" 100 st.Netlink.bytes_sent;
  check_int "delivered messages counted" (List.length delivered) st.Netlink.msgs_delivered;
  check_int "delivered bytes counted" (5 * List.length delivered) st.Netlink.bytes_delivered;
  check_int "conservation" 20 (st.Netlink.msgs_delivered + st.Netlink.dropped)

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

let mkfaulty ?stripes ?faults () =
  let clock = Clock.create () in
  (clock, Devarray.create ?stripes ?faults ~clock ~profile:Profile.optane_900p "nvme")

let test_fault_transient_read_raises () =
  let _, dev = mkfaulty ~faults:(Fault.plan ~transient_read:1.0 ()) () in
  Devarray.write dev 3 (Blockdev.Seed 7L);
  check_bool "every read fails at rate 1.0" true
    (match Devarray.read dev 3 with
     | _ -> false
     | exception Fault.Io_error (Fault.Transient { op = `Read; _ }) -> true);
  let st = Devarray.fault_stats dev in
  check_bool "injection counted" true (st.Fault.transient_reads > 0)

let test_fault_determinism () =
  (* Same seed, same op sequence => bit-identical fault schedule. *)
  let run () =
    let _, dev =
      mkfaulty ~stripes:2
        ~faults:(Fault.plan ~seed:99L ~transient_read:0.3 ~corruption:0.2 ()) ()
    in
    for i = 0 to 63 do Devarray.write dev i (Blockdev.Seed (Int64.of_int i)) done;
    let outcomes =
      List.init 64 (fun i ->
          match Devarray.read dev i with
          | Blockdev.Seed s -> Printf.sprintf "%d:%Ld" i s
          | Blockdev.Data d -> Printf.sprintf "%d:data:%d" i (Hashtbl.hash d)
          | Blockdev.Zero -> Printf.sprintf "%d:zero" i
          | exception Fault.Io_error e -> Printf.sprintf "%d:%s" i (Fault.describe e))
    in
    (outcomes, Devarray.fault_stats dev)
  in
  let o1, s1 = run () and o2, s2 = run () in
  check_bool "identical outcomes" true (o1 = o2);
  check_bool "identical stats" true (s1 = s2);
  check_bool "faults actually fired" true
    (s1.Fault.transient_reads > 0 && s1.Fault.corruptions > 0)

let test_fault_latent_until_rewrite () =
  let _, dev = mkfaulty ~faults:(Fault.plan ()) () in
  Devarray.write dev 5 (Blockdev.Seed 55L);
  Devarray.inject_latent dev 5;
  check_bool "latent read fails" true
    (match Devarray.read dev 5 with
     | _ -> false
     | exception Fault.Io_error (Fault.Latent _) -> true);
  check_bool "still failing: latent persists across retries" true
    (match Devarray.read dev 5 with
     | _ -> false
     | exception Fault.Io_error (Fault.Latent _) -> true);
  (* The rewrite remaps the sector and clears the error. *)
  Devarray.write dev 5 (Blockdev.Seed 56L);
  check_bool "readable after rewrite" true
    (Devarray.read dev 5 = Blockdev.Seed 56L)

let test_fault_latent_batch_reads_zero () =
  (* Batch reads are best-effort: a latent sector comes back [Zero]
     instead of failing the whole transfer. *)
  let _, dev = mkfaulty ~faults:(Fault.plan ()) () in
  Devarray.write dev 2 (Blockdev.Seed 2L);
  Devarray.write dev 3 (Blockdev.Seed 3L);
  Devarray.inject_latent dev 2;
  (match Devarray.read_many_arr dev [| 2; 3 |] with
   | [| a; b |] ->
     check_bool "latent block substituted with Zero" true (a = Blockdev.Zero);
     check_bool "healthy block intact" true (b = Blockdev.Seed 3L)
   | _ -> Alcotest.fail "wrong batch shape")

let test_fault_dropped_device () =
  let _, dev = mkfaulty ~stripes:2 ~faults:(Fault.plan ()) () in
  (* Logical blocks alternate devices: block 0 -> dev 0, block 1 -> dev 1. *)
  Devarray.write dev 0 (Blockdev.Seed 10L);
  Devarray.write dev 1 (Blockdev.Seed 11L);
  Devarray.drop_device dev 0;
  check_bool "dropped device fails reads" true
    (match Devarray.read dev 0 with
     | _ -> false
     | exception Fault.Io_error (Fault.Dropped _) -> true);
  check_bool "dropped device fails writes" true
    (match Devarray.write dev 0 (Blockdev.Seed 12L) with
     | () -> false
     | exception Fault.Io_error (Fault.Dropped _) -> true);
  check_bool "surviving stripe still serves" true
    (Devarray.read dev 1 = Blockdev.Seed 11L)

let test_fault_corruption_alters_payload () =
  let _, dev = mkfaulty ~faults:(Fault.plan ~corruption:1.0 ()) () in
  Devarray.write dev 4 (Blockdev.Seed 1234L);
  (* Silent: the read succeeds but the payload is wrong. *)
  check_bool "corrupted payload differs" true
    (Devarray.read dev 4 <> Blockdev.Seed 1234L);
  let st = Devarray.fault_stats dev in
  check_bool "corruption counted" true (st.Fault.corruptions > 0)

let test_fault_write_retry_charges_time () =
  let clock_clean, clean = mkfaulty () in
  let clock_flaky, flaky =
    mkfaulty ~faults:(Fault.plan ~seed:7L ~transient_write:0.2 ()) ()
  in
  let write dev =
    Devarray.await dev
      (Devarray.write_async_arr dev (Array.init 64 Fun.id)
         (Array.init 64 (fun i -> Blockdev.Seed (Int64.of_int i))))
  in
  write clean;
  write flaky;
  (* Internal retries extend the transfer with exponential backoff. *)
  check_bool "retries cost simulated time" true
    Duration.(Clock.now clock_flaky > Clock.now clock_clean);
  let st = Devarray.fault_stats flaky in
  check_bool "write retries counted" true (st.Fault.transient_writes > 0)

(* --- I/O scheduler -------------------------------------------------- *)

let uss = Duration.microseconds

(* A small weighted config with round numbers: after every 100 us of
   bulk service a 25 us gap is reserved (fg:flush = 1:4). *)
let wdrr_1_4 =
  Iosched.Wdrr { fg_weight = 1; flush_weight = 4; bg_weight = 4; quantum_us = 100. }

let test_iosched_fifo_is_legacy_queue () =
  (* Fifo must be bit-identical to the old busy_until arithmetic:
     max (now, horizon) + cost, classes ignored. *)
  let s = Iosched.create Iosched.Fifo in
  let st1, c1 =
    Iosched.schedule s ~now:Duration.zero ~cls:Iosched.Flush ~cost:(uss 100)
      ~blocks:10
  in
  Alcotest.check duration_t "first starts now" Duration.zero st1;
  Alcotest.check duration_t "first completes at cost" (uss 100) c1;
  let st2, c2 =
    Iosched.schedule s ~now:Duration.zero ~cls:Iosched.Foreground ~cost:(uss 10)
      ~blocks:1
  in
  Alcotest.check duration_t "foreground queues behind flush" (uss 100) st2;
  Alcotest.check duration_t "tail completion" (uss 110) c2;
  Alcotest.check duration_t "horizon is the tail" (uss 110) (Iosched.horizon s)

let test_iosched_wdrr_paces_bulk () =
  (* 400 us of flush service at 1:4 stretches to 500 us: four quanta,
     each followed by a 25 us reserved gap. *)
  let s = Iosched.create wdrr_1_4 in
  let st, c =
    Iosched.schedule s ~now:Duration.zero ~cls:Iosched.Flush ~cost:(uss 400)
      ~blocks:40
  in
  Alcotest.check duration_t "bulk starts now" Duration.zero st;
  Alcotest.check duration_t "elongated by fg/flush weight" (uss 500) c;
  let stats = Iosched.stats s in
  Alcotest.(check int)
    "reservation bookkeeping" 100
    (int_of_float stats.Iosched.s_gaps_reserved_us)

let test_iosched_wdrr_gap_fill () =
  let s = Iosched.create wdrr_1_4 in
  ignore
    (Iosched.schedule s ~now:Duration.zero ~cls:Iosched.Flush ~cost:(uss 400)
       ~blocks:40);
  (* A foreground arrival slots into the first reserved gap [100, 125)
     instead of queueing at 500. *)
  let st, c =
    Iosched.schedule s ~now:Duration.zero ~cls:Iosched.Foreground ~cost:(uss 10)
      ~blocks:1
  in
  Alcotest.check duration_t "starts at the first gap" (uss 100) st;
  Alcotest.check duration_t "completes inside it" (uss 110) c;
  (* The remainder of the gap is still usable. *)
  let st2, _ =
    Iosched.schedule s ~now:Duration.zero ~cls:Iosched.Foreground ~cost:(uss 10)
      ~blocks:1
  in
  Alcotest.check duration_t "remainder reused" (uss 110) st2;
  (* Too big for any 25 us gap: falls back to the queue tail. *)
  let st3, _ =
    Iosched.schedule s ~now:Duration.zero ~cls:Iosched.Foreground ~cost:(uss 50)
      ~blocks:5
  in
  Alcotest.check duration_t "oversized falls back to tail" (uss 500) st3;
  let stats = Iosched.stats s in
  Alcotest.(check int) "gap fills counted" 2 stats.Iosched.s_fg_gap_fills

let test_iosched_wdrr_gap_expiry () =
  let s = Iosched.create wdrr_1_4 in
  ignore
    (Iosched.schedule s ~now:Duration.zero ~cls:Iosched.Flush ~cost:(uss 400)
       ~blocks:40);
  (* By 200 us the first gap [100, 125) has passed unused; the arrival
     fills the second one [225, 250). *)
  let st, _ =
    Iosched.schedule s ~now:(uss 200) ~cls:Iosched.Foreground ~cost:(uss 10)
      ~blocks:1
  in
  Alcotest.check duration_t "expired gap skipped" (uss 225) st;
  let stats = Iosched.stats s in
  Alcotest.(check int)
    "expired reservation counted" 25
    (int_of_float stats.Iosched.s_gaps_expired_us)

let test_iosched_deadline_not_paced () =
  let s = Iosched.create wdrr_1_4 in
  (* Deadline submissions are never stretched... *)
  let st, c =
    Iosched.schedule s ~now:Duration.zero ~cls:Iosched.Deadline ~cost:(uss 400)
      ~blocks:40
  in
  Alcotest.check duration_t "deadline starts now" Duration.zero st;
  Alcotest.check duration_t "deadline not elongated" (uss 400) c;
  (* ... and honor not_before like the superblock barrier requires. *)
  let st2, c2 =
    Iosched.schedule ~not_before:(uss 600) s ~now:Duration.zero
      ~cls:Iosched.Deadline ~cost:(uss 10) ~blocks:1
  in
  Alcotest.check duration_t "not_before respected" (uss 600) st2;
  Alcotest.check duration_t "completion after barrier" (uss 610) c2

let test_iosched_reset_clears_schedule () =
  let s = Iosched.create wdrr_1_4 in
  ignore
    (Iosched.schedule s ~now:Duration.zero ~cls:Iosched.Flush ~cost:(uss 400)
       ~blocks:40);
  Iosched.reset_to s (uss 1000);
  Alcotest.check duration_t "horizon at reset point" (uss 1000) (Iosched.horizon s);
  let st, _ =
    Iosched.schedule s ~now:(uss 1000) ~cls:Iosched.Foreground ~cost:(uss 10)
      ~blocks:1
  in
  Alcotest.check duration_t "no stale gaps" (uss 1000) st

let test_iosched_blockdev_read_overtakes_flush () =
  (* End to end through the device: with the scheduler on, a foreground
     read issued while a checkpoint-sized extent batch drains completes
     well before the batch does. *)
  let run sched =
    let clock = Clock.create () in
    let dev = Blockdev.create ~sched ~clock ~profile:Profile.optane_900p "qdev" in
    (* Four runs of 256 blocks with a gap after each: four transfers. *)
    let blocks = Array.init 1024 (fun j -> (j / 256 * 257) + (j mod 256)) in
    let contents = Array.init 1024 (fun j -> Blockdev.Seed (Int64.of_int (j mod 256))) in
    let done_at = Blockdev.write_sorted dev blocks contents in
    check_int "four transfers" 4 (Blockdev.stats dev).Blockdev.writes;
    ignore (Blockdev.read dev 0);
    (Clock.now clock, done_at)
  in
  let fifo_read, fifo_done = run Iosched.Fifo in
  let wdrr_read, wdrr_done = run Iosched.default_wdrr in
  check_bool "fifo read queues behind the batch" true
    Duration.(fifo_read >= fifo_done);
  check_bool "wdrr read overtakes the batch" true
    Duration.(wdrr_read < wdrr_done);
  (* The batch pays the reservation tax, bounded by fg/flush weight. *)
  check_bool "flush cost bounded" true
    (Duration.to_us wdrr_done <= Duration.to_us fifo_done *. 1.10)

let test_iosched_determinism () =
  let trace cfg =
    let s = Iosched.create cfg in
    List.map
      (fun (now, cls, cost) ->
        Iosched.schedule s ~now:(uss now) ~cls ~cost:(uss cost) ~blocks:1)
      [ (0, Iosched.Flush, 400); (0, Iosched.Foreground, 10);
        (50, Iosched.Background, 200); (120, Iosched.Foreground, 10);
        (300, Iosched.Deadline, 30); (400, Iosched.Foreground, 15) ]
  in
  List.iter
    (fun cfg ->
      let a = trace cfg and b = trace cfg in
      check_bool "identical submissions, identical schedule" true (a = b))
    [ Iosched.Fifo; Iosched.default_wdrr; wdrr_1_4 ]

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "device"
    [
      ( "profile",
        [
          Alcotest.test_case "linear transfer cost" `Quick test_transfer_cost_linear;
          Alcotest.test_case "zero bytes" `Quick test_transfer_cost_zero_bytes;
          Alcotest.test_case "latency ordering" `Quick test_profile_ordering;
          Alcotest.test_case "cost model calibration" `Quick test_costmodel_calibration;
        ] );
      ( "blockdev",
        [
          Alcotest.test_case "read/write" `Quick test_blockdev_read_write;
          Alcotest.test_case "charges clock" `Quick test_blockdev_charges_clock;
          Alcotest.test_case "batching amortizes latency" `Quick test_blockdev_batched_cheaper;
          Alcotest.test_case "capacity enforced" `Quick test_blockdev_capacity;
          Alcotest.test_case "oversized data rejected" `Quick test_blockdev_oversized_data;
          Alcotest.test_case "crash drops volatile cache" `Quick test_crash_volatile_cache;
          Alcotest.test_case "crash keeps nonvolatile cache" `Quick test_crash_nonvolatile_cache;
          Alcotest.test_case "async completion" `Quick test_async_write_completion;
          Alcotest.test_case "crash drops in-flight async" `Quick
            test_async_crash_before_completion;
          Alcotest.test_case "completed async durable" `Quick
            test_async_crash_after_completion;
          Alcotest.test_case "flush makes durable" `Quick test_flush_makes_durable;
          Alcotest.test_case "stats" `Quick test_stats_counting;
          Alcotest.test_case "writes past the initial array" `Quick
            test_writes_past_initial_array;
          Alcotest.test_case "flush copies current to durable" `Quick
            test_flush_copies_current_to_durable;
          Alcotest.test_case "unwritten block reads Zero" `Quick
            test_unwritten_block_reads_zero;
          qt prop_blockdev_read_back;
          qt prop_crash_preserves_durable;
          qt prop_async_completions_monotone;
        ] );
      ( "devarray",
        [
          Alcotest.test_case "mapping is a bijection" `Quick
            test_devarray_mapping_bijection;
          Alcotest.test_case "single stripe is identity" `Quick
            test_devarray_single_stripe_identity;
          Alcotest.test_case "striped read/write roundtrip" `Quick
            test_devarray_read_write_roundtrip;
          Alcotest.test_case "per-device stats sum to aggregate" `Quick
            test_devarray_stats_sum;
          Alcotest.test_case "flush scales with stripes" `Quick
            test_devarray_flush_scales;
          qt prop_devarray_mapping_bijection;
          qt prop_column_submission_matches_list_path;
        ] );
      ( "faults",
        [
          Alcotest.test_case "transient read raises" `Quick
            test_fault_transient_read_raises;
          Alcotest.test_case "seeded schedule is deterministic" `Quick
            test_fault_determinism;
          Alcotest.test_case "latent sector until rewrite" `Quick
            test_fault_latent_until_rewrite;
          Alcotest.test_case "batch read substitutes Zero" `Quick
            test_fault_latent_batch_reads_zero;
          Alcotest.test_case "dropped device" `Quick test_fault_dropped_device;
          Alcotest.test_case "silent corruption" `Quick
            test_fault_corruption_alters_payload;
          Alcotest.test_case "write retries charge time" `Quick
            test_fault_write_retry_charges_time;
        ] );
      ( "iosched",
        [
          Alcotest.test_case "fifo is the legacy queue" `Quick
            test_iosched_fifo_is_legacy_queue;
          Alcotest.test_case "wdrr paces bulk service" `Quick
            test_iosched_wdrr_paces_bulk;
          Alcotest.test_case "foreground fills reserved gaps" `Quick
            test_iosched_wdrr_gap_fill;
          Alcotest.test_case "unused gaps expire" `Quick
            test_iosched_wdrr_gap_expiry;
          Alcotest.test_case "deadline bypasses pacing" `Quick
            test_iosched_deadline_not_paced;
          Alcotest.test_case "reset clears the schedule" `Quick
            test_iosched_reset_clears_schedule;
          Alcotest.test_case "read overtakes a flush batch" `Quick
            test_iosched_blockdev_read_overtakes_flush;
          Alcotest.test_case "schedule is deterministic" `Quick
            test_iosched_determinism;
        ] );
      ( "netlink",
        [
          Alcotest.test_case "delivery respects latency" `Quick test_netlink_delivery;
          Alcotest.test_case "blocking recv" `Quick test_netlink_blocking_recv;
          Alcotest.test_case "fifo + bandwidth" `Quick test_netlink_ordering_and_bandwidth;
          Alcotest.test_case "directions independent" `Quick
            test_netlink_directions_independent;
          Alcotest.test_case "drop rate 1.0 loses everything" `Quick
            test_netlink_drop_all;
          Alcotest.test_case "duplicate delivers twice" `Quick
            test_netlink_duplicate_all;
          Alcotest.test_case "corruption flips one bit" `Quick
            test_netlink_corrupt_preserves_length;
          Alcotest.test_case "reorder overtakes" `Quick test_netlink_reorder_overtakes;
          Alcotest.test_case "partition window cuts the wire" `Quick
            test_netlink_partition_window;
          Alcotest.test_case "seeded schedule is deterministic" `Quick
            test_netlink_fault_determinism;
          Alcotest.test_case "per-direction byte counters" `Quick
            test_netlink_byte_counters;
        ] );
    ]
