(* Tests for the VM subsystem: page contents, Mach-style objects with
   shadow chains, fork COW, Aurora's checkpoint COW with object-level
   dirty tracking, and page heat. *)

open Aurora_simtime
open Aurora_device
open Aurora_vm

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let content_t : Content.t Alcotest.testable = Alcotest.testable Content.pp Content.equal

let mkmap () =
  let clock = Clock.create () in
  let pool = Frame.create_pool () in
  (clock, pool, Vmmap.create ~clock ~pool ())

(* ------------------------------------------------------------------ *)
(* Content                                                             *)
(* ------------------------------------------------------------------ *)

let test_content_write_changes () =
  let c = Content.zero in
  let c' = Content.write c ~offset:0 ~value:1L in
  check_bool "changed" false (Content.equal c c');
  check_bool "zero detection" true (Content.is_zero c);
  check_bool "nonzero" false (Content.is_zero c')

let test_content_deterministic () =
  let a = Content.write (Content.of_seed 5L) ~offset:8 ~value:99L in
  let b = Content.write (Content.of_seed 5L) ~offset:8 ~value:99L in
  Alcotest.check content_t "same writes same content" a b;
  check_bool "hash agrees" true (Int64.equal (Content.hash a) (Content.hash b))

let test_content_order_sensitive () =
  let base = Content.of_seed 1L in
  let ab =
    Content.write (Content.write base ~offset:0 ~value:1L) ~offset:8 ~value:2L
  in
  let ba =
    Content.write (Content.write base ~offset:8 ~value:2L) ~offset:0 ~value:1L
  in
  check_bool "order matters" false (Content.equal ab ba)

let test_content_bytes () =
  let b = Content.to_bytes Content.zero in
  check_int "page size" 4096 (Bytes.length b);
  check_bool "zero page is zeroes" true (Bytes.for_all (fun c -> c = '\000') b);
  let nz = Content.to_bytes (Content.of_seed 7L) in
  check_bool "nonzero differs" false (Bytes.equal b nz);
  check_bool "expansion deterministic" true
    (Bytes.equal nz (Content.to_bytes (Content.of_seed 7L)))

let test_content_offset_bounds () =
  check_bool "bad offset" true
    (try
       ignore (Content.write Content.zero ~offset:4096 ~value:0L);
       false
     with Invalid_argument _ -> true)

let prop_content_write_injective_ish =
  QCheck.Test.make ~name:"different values give different content"
    QCheck.(triple int64 int64 (int_bound 4095))
    (fun (v1, v2, off) ->
      QCheck.assume (not (Int64.equal v1 v2));
      let a = Content.write Content.zero ~offset:off ~value:v1 in
      let b = Content.write Content.zero ~offset:off ~value:v2 in
      not (Content.equal a b))

(* ------------------------------------------------------------------ *)
(* Vmobject basics                                                     *)
(* ------------------------------------------------------------------ *)

let test_object_install_resolve () =
  let pool = Frame.create_pool () in
  let o = Vmobject.create ~pool Vmobject.Anonymous in
  Vmobject.install o 5 (Content.of_seed 3L);
  let owner = Vmobject.resolve o 5 in
  check_bool "owner is o" true (owner == o);
  check_bool "resident" true (Vmobject.status owner 5 = Vmobject.Resident);
  Alcotest.check content_t "content" (Content.of_seed 3L) (Vmobject.content owner 5);
  check_bool "absent elsewhere" true
    (Vmobject.status (Vmobject.resolve o 6) 6 = Vmobject.Absent)

let test_object_shadow_resolution () =
  let pool = Frame.create_pool () in
  let base = Vmobject.create ~pool Vmobject.Anonymous in
  Vmobject.install base 0 (Content.of_seed 11L);
  let shadow = Vmobject.make_shadow base in
  let owner = Vmobject.resolve shadow 0 in
  check_bool "chain walk found the page" true (Vmobject.status owner 0 <> Vmobject.Absent);
  check_bool "resolves to base" true (owner == base);
  (* A page installed in the shadow occludes the base. *)
  Vmobject.install shadow 0 (Content.of_seed 12L);
  let owner = Vmobject.resolve shadow 0 in
  check_bool "page not lost" true (Vmobject.status owner 0 <> Vmobject.Absent);
  check_bool "shadow occludes" true (owner == shadow);
  check_int "chain depth" 2 (Vmobject.chain_depth shadow)

let test_object_decref_releases_chain () =
  let pool = Frame.create_pool () in
  let base = Vmobject.create ~pool Vmobject.Anonymous in
  Vmobject.install base 0 Content.zero;
  let shadow = Vmobject.make_shadow base in
  Vmobject.install shadow 1 Content.zero;
  Vmobject.decref base; (* drop creator's ref; shadow still holds one *)
  check_int "still resident" 2 (Frame.resident pool);
  Vmobject.decref shadow;
  check_int "all released" 0 (Frame.resident pool)

let test_object_replace_releases_old () =
  let pool = Frame.create_pool () in
  let o = Vmobject.create ~pool Vmobject.Anonymous in
  Vmobject.install o 0 (Content.of_seed 1L);
  Vmobject.install o 0 (Content.of_seed 2L);
  check_int "old frame released" 1 (Frame.resident pool)

(* ------------------------------------------------------------------ *)
(* Checkpoint arming and Aurora COW                                    *)
(* ------------------------------------------------------------------ *)

let test_arm_full_captures_everything () =
  let pool = Frame.create_pool () in
  let o = Vmobject.create ~pool Vmobject.Anonymous in
  for i = 0 to 9 do
    Vmobject.install o i (Content.of_seed (Int64.of_int i))
  done;
  let items = Vmobject.arm_for_checkpoint o ~mode:`Full in
  check_int "all captured" 10 (List.length items);
  check_int "all armed" 10 (Vmobject.armed_count o);
  check_int "dirty cleared" 0 (Vmobject.dirty_count o)

let test_arm_dirty_only_captures_dirty () =
  let pool = Frame.create_pool () in
  let o = Vmobject.create ~pool Vmobject.Anonymous in
  for i = 0 to 9 do
    Vmobject.install o i (Content.of_seed (Int64.of_int i));
    if i mod 2 = 0 then Vmobject.mark_dirty o i
  done;
  (* The object's first arming captures every page, dirty or not. *)
  let first = Vmobject.arm_for_checkpoint o ~mode:`Dirty_only in
  check_int "first incremental = every page" 10 (List.length first);
  (* Nothing dirty now: next incremental captures nothing. *)
  let second = Vmobject.arm_for_checkpoint o ~mode:`Dirty_only in
  check_int "clean incremental empty" 0 (List.length second);
  (* Dirty three pages; only they are captured. *)
  Vmobject.disarm_for_write o 0;
  Vmobject.mark_dirty o 5 (* simulate an unarmed write *);
  let third = Vmobject.arm_for_checkpoint o ~mode:`Dirty_only in
  check_int "only dirtied captured" 2 (List.length third)

let test_capture_stable_under_writes () =
  let pool = Frame.create_pool () in
  let o = Vmobject.create ~pool Vmobject.Anonymous in
  Vmobject.install o 0 (Content.of_seed 9L);
  let c = Vmobject.arm o ~mode:`Full in
  (* A COW write replaces the page; the capture holds the old content
     by value, so the old copy leaves residency at once. *)
  Vmobject.disarm_for_write o 0;
  Vmobject.write o 0 ~offset:0 ~value:1L;
  check_int "one page captured" 1 (Array.length c.Vmobject.pindexes);
  Alcotest.check content_t "captured content unchanged" (Content.of_seed 9L)
    (Content.get c.Vmobject.seeds 0);
  Alcotest.check content_t "the write went to the new copy"
    (Content.write (Content.of_seed 9L) ~offset:0 ~value:1L)
    (Vmobject.content o 0);
  check_int "one frame resident" 1 (Frame.resident pool);
  check_int "two copies made" 2 (Frame.total_allocated pool)

let test_disarm_requires_armed () =
  let pool = Frame.create_pool () in
  let o = Vmobject.create ~pool Vmobject.Anonymous in
  Vmobject.install o 0 Content.zero;
  check_bool "not armed" true
    (try
       ignore (Vmobject.disarm_for_write o 0);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Vmmap: mapping, faults, fork COW                                    *)
(* ------------------------------------------------------------------ *)

let test_map_read_write () =
  let _, _, m = mkmap () in
  let e = Vmmap.map_anonymous m ~npages:4 () in
  let vpn = e.Vmmap.start_vpn in
  Alcotest.check content_t "reads zero before write" Content.zero (Vmmap.read m ~vpn);
  Vmmap.write m ~vpn ~offset:0 ~value:42L;
  check_bool "nonzero after write" false (Content.is_zero (Vmmap.read m ~vpn));
  check_int "zero-fill fault counted" 1 (Vmmap.faults m).Vmmap.zero_fill

let test_map_unmapped_faults () =
  let _, _, m = mkmap () in
  check_bool "segv" true
    (try
       ignore (Vmmap.read m ~vpn:0);
       false
     with Vmmap.Fault _ -> true)

let test_map_readonly_faults () =
  let _, _, m = mkmap () in
  let e = Vmmap.map_anonymous m ~writable:false ~npages:1 () in
  check_bool "write to ro" true
    (try
       Vmmap.write m ~vpn:e.Vmmap.start_vpn ~offset:0 ~value:1L;
       false
     with Vmmap.Fault _ -> true)

let test_fork_cow_isolation () =
  let _, _, parent = mkmap () in
  let e = Vmmap.map_anonymous parent ~npages:2 () in
  let vpn = e.Vmmap.start_vpn in
  Vmmap.write parent ~vpn ~offset:0 ~value:1L;
  let before = Vmmap.read parent ~vpn in
  let child = Vmmap.fork parent in
  (* Child sees parent's page... *)
  Alcotest.check content_t "child inherits" before (Vmmap.read child ~vpn);
  (* ...child write does not affect parent... *)
  Vmmap.write child ~vpn ~offset:8 ~value:2L;
  Alcotest.check content_t "parent unchanged" before (Vmmap.read parent ~vpn);
  check_bool "child changed" false (Content.equal before (Vmmap.read child ~vpn));
  (* ...and parent write after fork does not affect child's snapshot. *)
  let child_view = Vmmap.read child ~vpn in
  Vmmap.write parent ~vpn ~offset:16 ~value:3L;
  Alcotest.check content_t "child isolated" child_view (Vmmap.read child ~vpn);
  check_bool "fork cow faults counted" true ((Vmmap.faults child).Vmmap.fork_cow >= 1)

let test_fork_shared_entry_shares () =
  let _, _, parent = mkmap () in
  let e = Vmmap.map_anonymous parent ~inheritance:`Share ~npages:1 () in
  let vpn = e.Vmmap.start_vpn in
  Vmmap.write parent ~vpn ~offset:0 ~value:1L;
  let child = Vmmap.fork parent in
  Vmmap.write child ~vpn ~offset:8 ~value:2L;
  Alcotest.check content_t "shared both ways" (Vmmap.read parent ~vpn)
    (Vmmap.read child ~vpn)

let test_shared_object_two_maps () =
  let clock = Clock.create () in
  let pool = Frame.create_pool () in
  let m1 = Vmmap.create ~clock ~pool () in
  let m2 = Vmmap.create ~clock ~pool () in
  let obj = Vmobject.create ~pool Vmobject.Anonymous in
  let e1 = Vmmap.map_object m1 ~obj ~obj_offset:0 ~npages:2 () in
  let e2 = Vmmap.map_object m2 ~obj ~obj_offset:0 ~npages:2 () in
  Vmobject.decref obj; (* creator's reference; maps hold their own *)
  Vmmap.write m1 ~vpn:e1.Vmmap.start_vpn ~offset:0 ~value:7L;
  Alcotest.check content_t "shm visible across processes"
    (Vmmap.read m1 ~vpn:e1.Vmmap.start_vpn)
    (Vmmap.read m2 ~vpn:e2.Vmmap.start_vpn)

let test_aurora_cow_preserves_sharing () =
  (* The paper's §3 scenario: two processes share memory; a checkpoint
     arms the page; a write by one process must produce a new page
     seen by BOTH (standard fork COW would privatize it). *)
  let clock = Clock.create () in
  let pool = Frame.create_pool () in
  let m1 = Vmmap.create ~clock ~pool () in
  let m2 = Vmmap.create ~clock ~pool () in
  let obj = Vmobject.create ~pool Vmobject.Anonymous in
  let e1 = Vmmap.map_object m1 ~obj ~obj_offset:0 ~npages:1 () in
  let e2 = Vmmap.map_object m2 ~obj ~obj_offset:0 ~npages:1 () in
  Vmmap.write m1 ~vpn:e1.Vmmap.start_vpn ~offset:0 ~value:1L;
  let items = Vmobject.arm_for_checkpoint obj ~mode:`Dirty_only in
  check_int "page captured" 1 (List.length items);
  (* Write from process 2 triggers Aurora COW. *)
  Vmmap.write m2 ~vpn:e2.Vmmap.start_vpn ~offset:8 ~value:2L;
  check_int "ckpt cow fault" 1 (Vmmap.faults m2).Vmmap.ckpt_cow;
  Alcotest.check content_t "process 1 sees process 2's write"
    (Vmmap.read m2 ~vpn:e2.Vmmap.start_vpn)
    (Vmmap.read m1 ~vpn:e1.Vmmap.start_vpn);
  (* And the captured content is the pre-write snapshot. *)
  (match items with
   | [ item ] ->
     check_bool "snapshot isolated" false
       (Content.equal item.Vmobject.content (Vmmap.read m1 ~vpn:e1.Vmmap.start_vpn))
   | _ -> Alcotest.fail "one item");
  Vmobject.decref obj

let test_write_to_armed_charges_cow () =
  let clock, _, m = mkmap () in
  let e = Vmmap.map_anonymous m ~npages:1 () in
  let vpn = e.Vmmap.start_vpn in
  Vmmap.write m ~vpn ~offset:0 ~value:1L;
  ignore (Vmobject.arm e.Vmmap.obj ~mode:`Dirty_only);
  let before = Clock.now clock in
  Vmmap.write m ~vpn ~offset:0 ~value:2L;
  let elapsed = Duration.sub (Clock.now clock) before in
  check_bool "cow fault cost charged" true
    Duration.(elapsed >= Costmodel.cow_fault_service);
  (* Second write to the same page is now free of COW cost. *)
  let before2 = Clock.now clock in
  Vmmap.write m ~vpn ~offset:0 ~value:3L;
  check_bool "subsequent write cheap" true
    Duration.(Duration.sub (Clock.now clock) before2 < Costmodel.cow_fault_service)

let test_never_flush_twice () =
  (* A page shared by two processes and written by both between
     checkpoints appears exactly once in the next capture. *)
  let clock = Clock.create () in
  let pool = Frame.create_pool () in
  let m1 = Vmmap.create ~clock ~pool () in
  let m2 = Vmmap.create ~clock ~pool () in
  let obj = Vmobject.create ~pool Vmobject.Anonymous in
  let e1 = Vmmap.map_object m1 ~obj ~obj_offset:0 ~npages:1 () in
  let e2 = Vmmap.map_object m2 ~obj ~obj_offset:0 ~npages:1 () in
  Vmmap.write m1 ~vpn:e1.Vmmap.start_vpn ~offset:0 ~value:1L;
  Vmmap.write m2 ~vpn:e2.Vmmap.start_vpn ~offset:8 ~value:2L;
  let items = Vmobject.arm_for_checkpoint obj ~mode:`Dirty_only in
  check_int "flushed once" 1 (List.length items);
  Vmobject.decref obj

let test_major_fault_paged_out () =
  let clock, _, m = mkmap () in
  let e = Vmmap.map_anonymous m ~npages:1 () in
  let vpn = e.Vmmap.start_vpn in
  Vmmap.write m ~vpn ~offset:0 ~value:5L;
  let content = Vmmap.read m ~vpn in
  let cost = Duration.microseconds 50 in
  (* Leave the page behind in the image, as a lazy restore does. *)
  Vmobject.install_paged_out e.Vmmap.obj e.Vmmap.obj_offset ~content ~read_cost:cost;
  let before = Clock.now clock in
  Alcotest.check content_t "content faulted back in" content (Vmmap.read m ~vpn);
  check_bool "major fault charged device cost" true
    Duration.(Duration.sub (Clock.now clock) before >= cost);
  check_int "major fault counted" 1 (Vmmap.faults m).Vmmap.major

let test_resident_and_distinct () =
  let _, _, m = mkmap () in
  let e1 = Vmmap.map_anonymous m ~npages:4 () in
  let _e2 = Vmmap.map_anonymous m ~npages:4 () in
  Vmmap.write m ~vpn:e1.Vmmap.start_vpn ~offset:0 ~value:1L;
  Vmmap.write m ~vpn:(e1.Vmmap.start_vpn + 1) ~offset:0 ~value:1L;
  check_int "resident" 2 (Vmmap.resident_pages m);
  check_int "mapped extent" 8 (Vmmap.total_pages m);
  check_int "distinct objects" 2 (List.length (Vmmap.distinct_objects m))

let test_unmap_releases () =
  let _, pool, m = mkmap () in
  let e = Vmmap.map_anonymous m ~npages:2 () in
  Vmmap.write m ~vpn:e.Vmmap.start_vpn ~offset:0 ~value:1L;
  check_int "resident before" 1 (Frame.resident pool);
  Vmmap.unmap m e;
  check_int "released" 0 (Frame.resident pool);
  check_bool "vpn now unmapped" true
    (try
       ignore (Vmmap.read m ~vpn:e.Vmmap.start_vpn);
       false
     with Vmmap.Fault _ -> true)

(* [entry_at] answers from the entry it found last while that entry
   still covers the vpn; these pin when the hint must not answer. *)
let test_hint_unmap_faults () =
  let _, _, m = mkmap () in
  let a = Vmmap.map_anonymous m ~npages:4 () in
  let b = Vmmap.map_anonymous m ~npages:4 () in
  Vmmap.write m ~vpn:a.Vmmap.start_vpn ~offset:0 ~value:1L;
  Vmmap.unmap m a;
  check_bool "access after unmapping the hinted entry faults" true
    (try
       ignore (Vmmap.read m ~vpn:(a.Vmmap.start_vpn + 1));
       false
     with Vmmap.Fault _ -> true);
  Vmmap.write m ~vpn:b.Vmmap.start_vpn ~offset:0 ~value:2L;
  check_bool "the other entry still resolves" true
    (match Vmmap.entry_at m b.Vmmap.start_vpn with Some e -> e == b | None -> false)

let test_hint_map_fixed_gap () =
  let _, pool, m = mkmap () in
  let a = Vmmap.map_anonymous m ~npages:4 () in
  let b = Vmmap.map_anonymous m ~npages:4 () in
  Vmmap.write m ~vpn:a.Vmmap.start_vpn ~offset:0 ~value:1L;
  (* The guard gap between [a] and [b]. *)
  let gap = a.Vmmap.start_vpn + a.Vmmap.npages in
  check_bool "gap precedes b" true (gap + 2 <= b.Vmmap.start_vpn);
  let obj = Vmobject.create ~pool Vmobject.Anonymous in
  let c = Vmmap.map_fixed m ~start_vpn:gap ~obj ~obj_offset:0 ~npages:2 () in
  Vmobject.decref obj;
  check_bool "the fixed entry resolves" true
    (match Vmmap.entry_at m (gap + 1) with Some e -> e == c | None -> false);
  Vmmap.write m ~vpn:(gap + 1) ~offset:0 ~value:3L;
  check_bool "written through the fixed entry" false
    (Content.is_zero (Vmmap.read m ~vpn:(gap + 1)));
  check_bool "a keeps its page" false (Content.is_zero (Vmmap.read m ~vpn:a.Vmmap.start_vpn))

let test_hint_not_inherited_by_fork () =
  let _, _, parent = mkmap () in
  let e = Vmmap.map_anonymous parent ~npages:2 () in
  let vpn = e.Vmmap.start_vpn in
  Vmmap.write parent ~vpn ~offset:0 ~value:1L;
  let before = Vmmap.read parent ~vpn in
  let child = Vmmap.fork parent in
  check_bool "child resolves to its own entry" true
    (match Vmmap.entry_at child vpn with Some c -> c != e | None -> false);
  Vmmap.write child ~vpn ~offset:8 ~value:2L;
  Alcotest.check content_t "parent unchanged by the child's write" before
    (Vmmap.read parent ~vpn)

let prop_fork_preserves_contents =
  QCheck.Test.make ~name:"fork preserves all parent page contents"
    QCheck.(list_of_size Gen.(int_range 1 30) (pair (int_bound 15) int64))
    (fun writes ->
      let _, _, parent = mkmap () in
      let e = Vmmap.map_anonymous parent ~npages:16 () in
      let base = e.Vmmap.start_vpn in
      List.iter (fun (p, v) -> Vmmap.write parent ~vpn:(base + p) ~offset:0 ~value:v)
        writes;
      let child = Vmmap.fork parent in
      List.for_all
        (fun (p, _) ->
          Content.equal (Vmmap.read parent ~vpn:(base + p)) (Vmmap.read child ~vpn:(base + p)))
        writes)

let prop_cow_write_isolation =
  QCheck.Test.make ~name:"post-fork writes never leak across COW"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 20) (pair (int_bound 7) int64))
        (list_of_size Gen.(int_range 1 20) (pair (int_bound 7) int64)))
    (fun (parent_writes, child_writes) ->
      let _, _, parent = mkmap () in
      let e = Vmmap.map_anonymous parent ~npages:8 () in
      let base = e.Vmmap.start_vpn in
      List.iter (fun (p, v) -> Vmmap.write parent ~vpn:(base + p) ~offset:0 ~value:v)
        parent_writes;
      let child = Vmmap.fork parent in
      let parent_before = List.init 8 (fun i -> Vmmap.read parent ~vpn:(base + i)) in
      List.iter (fun (p, v) -> Vmmap.write child ~vpn:(base + p) ~offset:8 ~value:v)
        child_writes;
      let parent_after = List.init 8 (fun i -> Vmmap.read parent ~vpn:(base + i)) in
      List.for_all2 Content.equal parent_before parent_after)

let prop_incremental_capture_equals_dirty =
  QCheck.Test.make ~name:"incremental checkpoint captures exactly dirtied pages"
    QCheck.(list_of_size Gen.(int_range 1 40) (int_bound 31))
    (fun touched ->
      let _, _, m = mkmap () in
      let e = Vmmap.map_anonymous m ~npages:32 () in
      let base = e.Vmmap.start_vpn in
      (* Populate and take a first checkpoint. *)
      for i = 0 to 31 do
        Vmmap.write m ~vpn:(base + i) ~offset:0 ~value:1L
      done;
      ignore (Vmobject.arm e.Vmmap.obj ~mode:`Dirty_only);
      (* Touch a random subset. *)
      List.iter (fun p -> Vmmap.write m ~vpn:(base + p) ~offset:0 ~value:9L) touched;
      let expected = List.sort_uniq Int.compare touched in
      let second = Vmobject.arm_for_checkpoint e.Vmmap.obj ~mode:`Dirty_only in
      let captured =
        List.sort Int.compare (List.map (fun i -> i.Vmobject.pindex) second)
      in
      captured = expected)


let prop_fork_chain_generations =
  (* A chain of forks (grandparent -> parent -> child -> ...), each
     generation writing after its fork: every process's view must
     match an independent model, however deep the shadow chains get. *)
  QCheck.Test.make ~name:"deep fork chains preserve per-process isolation" ~count:40
    QCheck.(pair (int_range 1 6) (list_of_size Gen.(int_range 1 30)
                                    (pair (int_bound 7) int64)))
    (fun (depth, writes) ->
      let _, _, root = mkmap () in
      let e = Vmmap.map_anonymous root ~npages:8 () in
      let base = e.Vmmap.start_vpn in
      (* Model: per-generation array of page values (as content). *)
      let maps = ref [ root ] in
      let models = ref [ Array.make 8 Content.zero ] in
      let apply m model (page, v) =
        Vmmap.write m ~vpn:(base + page) ~offset:0 ~value:v;
        model.(page) <- Content.write model.(page) ~offset:0 ~value:v
      in
      (* Seed the root. *)
      List.iter (apply root (List.hd !models)) writes;
      for _ = 1 to depth do
        let parent = List.hd !maps in
        let parent_model = List.hd !models in
        let child = Vmmap.fork parent in
        let child_model = Array.copy parent_model in
        (* Interleave writes in child then parent (distinct values). *)
        List.iteri
          (fun i (page, v) ->
            if i mod 2 = 0 then apply child child_model (page, Int64.add v 1L)
            else apply parent parent_model (page, Int64.sub v 1L))
          writes;
        maps := child :: !maps;
        models := child_model :: !models
      done;
      List.for_all2
        (fun m model ->
          let ok = ref true in
          for i = 0 to 7 do
            if not (Content.equal model.(i) (Vmmap.read m ~vpn:(base + i))) then
              ok := false
          done;
          !ok)
        !maps !models)

(* ------------------------------------------------------------------ *)
(* Vmobject against a pure model                                       *)
(* ------------------------------------------------------------------ *)

module Imap = Map.Make (Int)
module Iset = Set.Make (Int)

(* Each page's residency and content seed, and the dirty, armed and
   heat state, as pure maps and sets. [captured]: the object has been
   armed. [allocated] counts every copy ever made. *)
type model = {
  pages : (bool * int64) Imap.t;
  dirty : Iset.t;
  armed : Iset.t;
  heat : int Imap.t;
  captured : bool;
  allocated : int;
}

type obj_op =
  | Install of int * int64
  | Install_paged_out of int * int64
  | Page_in of int
  | Touch of int
  | Mark_dirty of int
  | Arm of [ `Full | `Dirty_only ] * [ `Columns | `Items ]
  | Disarm of int
  | Age

let show_obj_op = function
  | Install (p, s) -> Printf.sprintf "install %d %Ld" p s
  | Install_paged_out (p, s) -> Printf.sprintf "install_paged_out %d %Ld" p s
  | Page_in p -> Printf.sprintf "page_in %d" p
  | Touch p -> Printf.sprintf "touch %d" p
  | Mark_dirty p -> Printf.sprintf "mark_dirty %d" p
  | Arm (mode, view) ->
    Printf.sprintf "arm %s %s"
      (match mode with `Full -> "full" | `Dirty_only -> "dirty_only")
      (match view with `Columns -> "columns" | `Items -> "items")
  | Disarm p -> Printf.sprintf "disarm %d" p
  | Age -> "age"

let gen_obj_op =
  let open QCheck.Gen in
  (* Mostly a few dozen pages, so operations meet on one page; now and
     then one past the first 1,024 page slots and 32,768 bitset bits. *)
  let pindex = frequency [ (12, int_bound 40); (1, int_range 1_000 34_000) ] in
  let seed = map Int64.of_int (int_range 1 1_000) in
  let view = oneofl [ `Columns; `Items ] in
  frequency
    [ (4, map2 (fun p s -> Install (p, s)) pindex seed);
      (2, map2 (fun p s -> Install_paged_out (p, s)) pindex seed);
      (2, map (fun p -> Page_in p) pindex);
      (5, map (fun p -> Touch p) pindex);
      (4, map (fun p -> Mark_dirty p) pindex);
      (1, map (fun v -> Arm (`Full, v)) view);
      (2, map (fun v -> Arm (`Dirty_only, v)) view);
      (3, map (fun p -> Disarm p) pindex);
      (1, return Age) ]

let model_hot_pages m ~limit =
  Imap.bindings m.heat
  |> List.sort (fun (ka, va) (kb, vb) ->
         match Int.compare vb va with 0 -> Int.compare ka kb | c -> c)
  |> List.filteri (fun i _ -> i < limit)
  |> List.map fst

let model_resident m = Imap.fold (fun _ (r, _) n -> if r then n + 1 else n) m.pages 0

(* The object's first arming captures every present page, whatever the
   mode; later incremental ones capture the dirty pages. Every capture
   is kept to the end, so later operations (a COW fault, an install,
   the object's death) meet pages a capture took, and each capture must
   still read as it did when it was taken: it holds its pages by value
   and pins no frame. Arming goes through the columns or the list view
   at random. *)
let prop_vmobject_matches_model =
  QCheck.Test.make ~name:"vmobject agrees with a pure map model" ~count:150
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map show_obj_op ops))
        ~shrink:Shrink.list
        Gen.(list_size (int_range 1 60) gen_obj_op))
    (fun ops ->
      let pool = Frame.create_pool () in
      let o = Vmobject.create ~pool Vmobject.Anonymous in
      let fail step fmt =
        Printf.ksprintf (fun msg -> QCheck.Test.fail_reportf "step %d: %s" step msg) fmt
      in
      let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
      let page_view p status =
        (status = Vmobject.Resident, Content.to_seed (Vmobject.content o p))
      in
      let check_pages step m =
        let got =
          Vmobject.fold_pages o ~init:[] ~f:(fun acc p status -> (p, page_view p status) :: acc)
          |> List.rev
        in
        if got <> Imap.bindings m.pages then fail step "fold_pages differs";
        if Vmobject.resident_count o <> model_resident m then fail step "resident_count";
        let heated = Imap.cardinal m.heat in
        List.iter
          (fun limit ->
            if Vmobject.hot_pages o ~limit <> model_hot_pages m ~limit then
              fail step "hot_pages ~limit:%d" limit)
          [ 0; 1; 3; heated; heated + 1; max_int ]
      in
      (* Each column capture taken, with the pages it read. *)
      let captures = ref [] in
      let capture_pages (c : Vmobject.capture) =
        List.init (Array.length c.pindexes) (fun i ->
            (c.pindexes.(i), Content.to_seed (Content.get c.seeds i)))
      in
      let step_op step m op =
        match op with
        | Install (p, s) ->
          Vmobject.install o p (Content.of_seed s);
          { m with pages = Imap.add p (true, s) m.pages; allocated = m.allocated + 1 }
        | Install_paged_out (p, s) ->
          Vmobject.install_paged_out o p ~content:(Content.of_seed s) ~read_cost:Duration.zero;
          { m with pages = Imap.add p (false, s) m.pages }
        | Page_in p -> (
          match Imap.find_opt p m.pages with
          | Some (false, s) ->
            Vmobject.page_in o p;
            { m with pages = Imap.add p (true, s) m.pages; allocated = m.allocated + 1 }
          | Some (true, _) | None ->
            if not (raises (fun () -> Vmobject.page_in o p)) then fail step "page_in accepted";
            m)
        | Touch p ->
          Vmobject.touch o p;
          { m with heat = Imap.add p (1 + Option.value ~default:0 (Imap.find_opt p m.heat)) m.heat }
        | Mark_dirty p ->
          Vmobject.mark_dirty o p;
          { m with dirty = Iset.add p m.dirty }
        | Arm (mode, view) ->
          let got =
            match view with
            | `Items ->
              List.map
                (fun (it : Vmobject.flush_item) -> (it.pindex, Content.to_seed it.content))
                (Vmobject.arm_for_checkpoint o ~mode)
            | `Columns ->
              let c = Vmobject.arm o ~mode in
              if Bytes.length c.seeds <> Array.length c.pindexes * Content.slot_bytes then
                fail step "capture columns of different lengths";
              let pages = capture_pages c in
              captures := (c, pages) :: !captures;
              pages
          in
          let every_page = mode = `Full || not m.captured in
          let captured =
            Imap.bindings m.pages
            |> List.filter (fun (p, _) -> every_page || Iset.mem p m.dirty)
            |> List.map (fun (p, (_, s)) -> (p, s))
          in
          if got <> captured then fail step "captured pages differ";
          let armed = List.fold_left (fun s (p, _) -> Iset.add p s) m.armed captured in
          let m = { m with dirty = Iset.empty; armed; captured = true } in
          check_pages step m;
          m
        | Disarm p -> (
          match Imap.find_opt p m.pages with
          | Some (true, s) when Iset.mem p m.armed ->
            Vmobject.disarm_for_write o p;
            if Content.to_seed (Vmobject.content o p) <> s then fail step "disarm content";
            { m with armed = Iset.remove p m.armed; dirty = Iset.add p m.dirty;
                     allocated = m.allocated + 1 }
          | _ ->
            if not (raises (fun () -> Vmobject.disarm_for_write o p)) then
              fail step "disarm accepted";
            m)
        | Age ->
          Vmobject.age_heat o;
          { m with heat = Imap.filter_map (fun _ h -> if h / 2 = 0 then None else Some (h / 2)) m.heat }
      in
      let check_frames step m =
        if Frame.resident pool <> model_resident m then fail step "frames resident";
        if Frame.total_allocated pool <> m.allocated then fail step "frames allocated"
      in
      let check_counts step m op =
        let p = match op with
          | Install (p, _) | Install_paged_out (p, _) | Page_in p | Touch p | Mark_dirty p
          | Disarm p -> p
          | Arm _ | Age -> 0
        in
        if Vmobject.armed_count o <> Iset.cardinal m.armed then fail step "armed_count";
        if Vmobject.dirty_count o <> Iset.cardinal m.dirty then fail step "dirty_count";
        if Vmobject.is_armed o p <> Iset.mem p m.armed then fail step "is_armed %d" p;
        if Vmobject.heat o p <> Option.value ~default:0 (Imap.find_opt p m.heat) then
          fail step "heat %d" p;
        check_frames step m
      in
      let empty =
        { pages = Imap.empty; dirty = Iset.empty; armed = Iset.empty; heat = Imap.empty;
          captured = false; allocated = 0 }
      in
      let m, _ =
        List.fold_left
          (fun (m, step) op ->
            let m = step_op step m op in
            check_counts step m op;
            (m, step + 1))
          (empty, 0) ops
      in
      let last = List.length ops in
      check_pages last m;
      (* At zero references every copy leaves residency and every
         per-page array is cleared. *)
      Vmobject.decref o;
      check_frames last { m with pages = Imap.empty };
      check_pages last empty;
      if Vmobject.armed_count o <> 0 || Vmobject.dirty_count o <> 0 then
        fail last "sets survive decref";
      List.iter
        (fun (c, pages) -> if capture_pages c <> pages then fail last "a capture changed")
        !captures;
      true)

(* ------------------------------------------------------------------ *)
(* Allocation on the memory-access path                                *)
(* ------------------------------------------------------------------ *)

(* Minor words [f] allocates, with empty minor heaps on both sides. *)
let minor_words_of f =
  Gc.minor ();
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor ();
  Gc.minor_words () -. w0

let test_hot_paths_allocate_nothing () =
  let open Aurora_proc in
  let k = Kernel.create () in
  let p = Kernel.spawn k ~name:"kv" ~program:"none" () in
  (* Library-like mappings first, so the data region is last in the
     entry list, as in the kvstore fixtures. *)
  for _ = 1 to 70 do
    ignore (Syscall.mmap_anon k p ~npages:2)
  done;
  let npages = 256 in
  let e = Syscall.mmap_anon k p ~npages in
  let base = e.Vmmap.start_vpn and o = e.Vmmap.obj and m = p.Process.vm in
  for i = 0 to npages - 1 do
    Syscall.mem_write k p ~vpn:(base + i) ~offset:0 ~value:(Int64.of_int i)
  done;
  ignore (Vmobject.arm o ~mode:`Full);
  for i = 0 to (npages / 2) - 1 do
    Vmobject.disarm_for_write o (2 * i)
  done;
  let n = 20_000 in
  let zero name f =
    let dw = minor_words_of f in
    check_bool (Printf.sprintf "%s allocates nothing (%.0f minor words / %d calls)" name dw n)
      true (dw < 64.)
  in
  ignore (Vmmap.entry_at m base);
  zero "entry_at on a hint hit" (fun () ->
      for i = 1 to n do
        ignore (Vmmap.entry_at m (base + (i land (npages - 1))))
      done);
  zero "touch" (fun () ->
      for i = 1 to n do
        Vmobject.touch o (i land (npages - 1))
      done);
  let armed = ref 0 and heat = ref 0 in
  zero "is_armed and heat" (fun () ->
      for i = 1 to n do
        if Vmobject.is_armed o (i land (npages - 1)) then incr armed;
        heat := !heat + Vmobject.heat o (i land (npages - 1))
      done);
  check_bool "half the pages armed" true (!armed = n / 2);
  check_bool "heat read back" true (!heat > 0);
  zero "mark_dirty of a dirty page" (fun () ->
      for i = 1 to n do
        Vmobject.mark_dirty o (2 * (i land ((npages / 2) - 1)))
      done);
  (* Its boxed [int64] result is all a load allocates. *)
  let dw =
    minor_words_of (fun () ->
        for i = 1 to n do
          ignore (Syscall.mem_read k p ~vpn:(base + (i land (npages - 1))) ~offset:8)
        done)
  in
  check_bool
    (Printf.sprintf "mem_read of a resident page: %.1f minor words each" (dw /. float_of_int n))
    true
    (dw <= (3. *. float_of_int n) +. 64.);
  (* The even pages are resident and no longer armed. *)
  zero "mem_write to a resident unarmed page" (fun () ->
      for i = 1 to n do
        Syscall.mem_write k p ~vpn:(base + (2 * (i land ((npages / 2) - 1)))) ~offset:16
          ~value:7L
      done);
  check_int "no fault taken" 0 (Vmmap.faults m).Vmmap.ckpt_cow;
  (* Each write to an armed page takes Aurora's checkpoint COW fault. *)
  ignore (Vmobject.arm o ~mode:`Full);
  let dw =
    minor_words_of (fun () ->
        for i = 0 to npages - 1 do
          Syscall.mem_write k p ~vpn:(base + i) ~offset:24 ~value:7L
        done)
  in
  check_int "one fault per page" npages (Vmmap.faults m).Vmmap.ckpt_cow;
  check_bool (Printf.sprintf "checkpoint COW fault allocates nothing (%.0f minor words / %d)" dw npages)
    true (dw < 64.)

(* Words [f] allocates in either heap. Arrays longer than 256 words are
   allocated straight in the major heap, which [minor_words_of] does not
   see. *)
let words_of f =
  Gc.minor ();
  let minor0, promoted0, major0 = Gc.counters () in
  f ();
  Gc.minor ();
  let minor1, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)

(* A page costs its slots in the columns and nothing else: an eager
   install of a region, columns grown as it goes, is a few bytes a page,
   and tearing the object down allocates nothing per page. *)
let test_install_and_teardown_words () =
  let pool = Frame.create_pool () in
  let o = Vmobject.create ~pool Vmobject.Anonymous in
  let npages = 65_536 and c = Content.of_seed 5L in
  let dw =
    words_of (fun () ->
        for i = 0 to npages - 1 do
          Vmobject.install o i c
        done)
  in
  check_bool (Printf.sprintf "eager install: %.2f words a page" (dw /. float_of_int npages))
    true (dw <= 2.5 *. float_of_int npages);
  check_int "all resident" npages (Vmobject.resident_count o);
  let dw = words_of (fun () -> Vmobject.decref o) in
  check_bool (Printf.sprintf "teardown of %d pages: %.0f words" npages dw) true (dw < 64.);
  check_int "released" 0 (Frame.resident pool)

(* A capture holds its pages by value and pins nothing, so arming costs
   the capture's two columns, a page index and an 8-byte seed a page,
   and no per-page state in the object: on a fresh object's first Full
   arming (which also sizes the armed set) and on a later incremental
   one of every page. *)
let test_arm_words () =
  let o = Vmobject.create ~pool:(Frame.create_pool ()) Vmobject.Anonymous in
  let npages = 65_536 in
  for i = 0 to npages - 1 do
    Vmobject.install o i (Content.of_seed (Int64.of_int i))
  done;
  let arm name mode =
    let n = ref 0 in
    let dw = words_of (fun () -> n := Array.length (Vmobject.arm o ~mode).Vmobject.pindexes) in
    check_int (name ^ ": every page captured") npages !n;
    check_bool (Printf.sprintf "%s: %.3f words a page" name (dw /. float_of_int npages))
      true (dw <= 2.1 *. float_of_int npages)
  in
  arm "first Full arming" `Full;
  for i = 0 to npages - 1 do
    Vmobject.disarm_for_write o i
  done;
  arm "incremental arming" `Dirty_only

(* [hot_pages] finds its cutoff by counting, so a small hot set of a
   large object costs the pages it lists, not a sort of every heated
   page. *)
let test_hot_pages_words () =
  let o = Vmobject.create ~pool:(Frame.create_pool ()) Vmobject.Anonymous in
  let npages = 65_536 and limit = 1_024 in
  for i = 0 to npages - 1 do
    for _ = 0 to i mod 7 do
      Vmobject.touch o i
    done
  done;
  let hot = ref [] in
  let dw = words_of (fun () -> hot := Vmobject.hot_pages o ~limit) in
  check_int "listed" limit (List.length !hot);
  check_bool (Printf.sprintf "hot_pages ~limit:%d: %.1f words a listed page" limit
                (dw /. float_of_int limit))
    true (dw <= 6. *. float_of_int limit);
  (* Heat 7 is pages 6, 13, 20, ...: the first [limit] of them. *)
  Alcotest.(check (list int)) "hottest, ties by page index"
    (List.init limit (fun i -> (7 * i) + 6))
    !hot

(* A restored object's first access can land anywhere in a large
   region; it costs one heat chunk and the chunk directory, not an array
   as long as the region. *)
let test_first_touch_allocates_one_chunk () =
  let o = Vmobject.create ~pool:(Frame.create_pool ()) Vmobject.Anonymous in
  let dw = words_of (fun () -> Vmobject.touch o 65_535) in
  check_bool (Printf.sprintf "first touch of page 65,535: %.0f words" dw) true (dw < 2_000.);
  check_int "heat recorded" 1 (Vmobject.heat o 65_535);
  check_int "its neighbours stay cold" 0 (Vmobject.heat o 65_534);
  Alcotest.(check (list int)) "hot set" [ 65_535 ] (Vmobject.hot_pages o ~limit:4)

(* ------------------------------------------------------------------ *)
(* Page heat                                                           *)
(* ------------------------------------------------------------------ *)

let test_hot_set_ranking () =
  let _, _, m = mkmap () in
  let e = Vmmap.map_anonymous m ~npages:8 () in
  let base = e.Vmmap.start_vpn in
  for i = 0 to 7 do
    Vmmap.write m ~vpn:(base + i) ~offset:0 ~value:1L
  done;
  (* Heat up pages 2 and 5. *)
  for _ = 1 to 10 do
    ignore (Vmmap.read m ~vpn:(base + 2))
  done;
  for _ = 1 to 5 do
    ignore (Vmmap.read m ~vpn:(base + 5))
  done;
  let hot = Vmobject.hot_pages e.Vmmap.obj ~limit:2 in
  (match hot with
   | [ p1; p2 ] ->
     check_int "hottest" (e.Vmmap.obj_offset + 2) p1;
     check_int "second" (e.Vmmap.obj_offset + 5) p2
   | _ -> Alcotest.fail "expected two hot pages");
  (* Aging halves the counters. *)
  let before = Vmobject.heat e.Vmmap.obj (e.Vmmap.obj_offset + 2) in
  Vmobject.age_heat e.Vmmap.obj;
  check_int "aged" (before / 2) (Vmobject.heat e.Vmmap.obj (e.Vmmap.obj_offset + 2))

(* The bounded top-k must rank exactly like the full sort it replaces:
   heat descending, ties by page index ascending. Heats come from a
   small range so ties are the common case. *)
let prop_hot_pages_matches_full_sort =
  QCheck.Test.make ~name:"hot_pages equals the full-sort reference" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 0 300) (pair (int_bound 400) (int_range 1 4)))
              (int_bound 350))
    (fun (touches, limit) ->
      let pool = Frame.create_pool () in
      let o = Vmobject.create ~pool Vmobject.Anonymous in
      List.iter (fun (p, n) -> for _ = 1 to n do Vmobject.touch o p done) touches;
      let pages = List.sort_uniq Int.compare (List.map fst touches) in
      let reference =
        List.map (fun p -> (p, Vmobject.heat o p)) pages
        |> List.sort (fun (ka, va) (kb, vb) ->
               match Int.compare vb va with 0 -> Int.compare ka kb | c -> c)
        |> List.map fst
      in
      let take n l = List.filteri (fun i _ -> i < n) l in
      (* [limit] below, at and above the number of hot pages. *)
      List.for_all
        (fun limit -> Vmobject.hot_pages o ~limit = take limit reference)
        [ 0; 1; limit; List.length pages; List.length pages + 1; max_int ])

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "vm"
    [
      ( "content",
        [
          Alcotest.test_case "write changes content" `Quick test_content_write_changes;
          Alcotest.test_case "deterministic" `Quick test_content_deterministic;
          Alcotest.test_case "order sensitive" `Quick test_content_order_sensitive;
          Alcotest.test_case "byte expansion" `Quick test_content_bytes;
          Alcotest.test_case "offset bounds" `Quick test_content_offset_bounds;
          qt prop_content_write_injective_ish;
        ] );
      ( "vmobject",
        [
          Alcotest.test_case "install/resolve" `Quick test_object_install_resolve;
          Alcotest.test_case "shadow resolution" `Quick test_object_shadow_resolution;
          Alcotest.test_case "decref releases chain" `Quick test_object_decref_releases_chain;
          Alcotest.test_case "replace releases old frame" `Quick
            test_object_replace_releases_old;
          qt prop_vmobject_matches_model;
          Alcotest.test_case "VM hot paths allocate nothing" `Quick
            test_hot_paths_allocate_nothing;
          Alcotest.test_case "first touch allocates one heat chunk" `Quick
            test_first_touch_allocates_one_chunk;
          Alcotest.test_case "install and teardown words per page" `Quick
            test_install_and_teardown_words;
          Alcotest.test_case "arming words per page" `Quick test_arm_words;
          Alcotest.test_case "hot_pages allocates per listed page" `Quick
            test_hot_pages_words;
        ] );
      ( "checkpoint-cow",
        [
          Alcotest.test_case "full captures everything" `Quick
            test_arm_full_captures_everything;
          Alcotest.test_case "incremental captures dirty" `Quick
            test_arm_dirty_only_captures_dirty;
          Alcotest.test_case "flush capture stable under writes" `Quick
            test_capture_stable_under_writes;
          Alcotest.test_case "disarm requires armed" `Quick test_disarm_requires_armed;
          Alcotest.test_case "aurora cow preserves sharing" `Quick
            test_aurora_cow_preserves_sharing;
          Alcotest.test_case "armed write charges cow cost" `Quick
            test_write_to_armed_charges_cow;
          Alcotest.test_case "shared page flushed once" `Quick test_never_flush_twice;
          qt prop_incremental_capture_equals_dirty;
        ] );
      ( "vmmap",
        [
          Alcotest.test_case "map/read/write" `Quick test_map_read_write;
          Alcotest.test_case "unmapped faults" `Quick test_map_unmapped_faults;
          Alcotest.test_case "read-only faults" `Quick test_map_readonly_faults;
          Alcotest.test_case "fork cow isolation" `Quick test_fork_cow_isolation;
          Alcotest.test_case "fork shared entry" `Quick test_fork_shared_entry_shares;
          Alcotest.test_case "shared object across maps" `Quick test_shared_object_two_maps;
          Alcotest.test_case "major fault from swap" `Quick test_major_fault_paged_out;
          Alcotest.test_case "residency accounting" `Quick test_resident_and_distinct;
          Alcotest.test_case "unmap releases frames" `Quick test_unmap_releases;
          Alcotest.test_case "hint: unmapped entry faults" `Quick test_hint_unmap_faults;
          Alcotest.test_case "hint: map_fixed into a gap" `Quick test_hint_map_fixed_gap;
          Alcotest.test_case "hint: fork starts without one" `Quick
            test_hint_not_inherited_by_fork;
          qt prop_fork_preserves_contents;
          qt prop_cow_write_isolation;
          qt prop_fork_chain_generations;
        ] );
      ( "clock-swap",
        [
          Alcotest.test_case "hot set ranking" `Quick test_hot_set_ranking;
          qt prop_hot_pages_matches_full_sort;
        ] );
    ]
