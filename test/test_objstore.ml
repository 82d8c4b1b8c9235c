(* Tests for the object store: reference-counted allocation, the COW
   B+tree (sharing across snapshots, release cascades), content
   deduplication, generation commit/readback, crash recovery through
   the dual superblocks, and in-place GC. *)

open Aurora_simtime
open Aurora_device
open Aurora_objstore

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* One page, as a one-page column put. *)
let put_page s ~oid ~pindex ~seed = Store.put_pages s ~oid [| (pindex, seed) |]

let mkdev ?(profile = Profile.optane_900p) ?stripes ?faults () =
  let clock = Clock.create () in
  (clock, Devarray.create ?stripes ?faults ~clock ~profile "store")

let fsck_problems (r : Store.fsck_report) =
  r.Store.problems
  @ List.map
      (fun (g, reason) -> Printf.sprintf "generation %d lost: %s" g reason)
      r.Store.lost

let expect_clean_fsck ?(scrub = false) what s =
  let r = Store.fsck ~scrub s in
  if not (Store.fsck_ok r) then
    Alcotest.failf "%s: %s" what (String.concat "; " (fsck_problems r))

(* ------------------------------------------------------------------ *)
(* Alloc                                                               *)
(* ------------------------------------------------------------------ *)

let test_alloc_reuse () =
  let a = Alloc.create ~first_block:2 () in
  let b1 = Alloc.alloc a in
  let b2 = Alloc.alloc a in
  check_bool "skips reserved" true (b1 >= 2 && b2 >= 2 && b1 <> b2);
  Alloc.decref a b1;
  check_int "freed block reused" b1 (Alloc.alloc a);
  check_int "live" 2 (Alloc.live_blocks a)

let test_alloc_refcounting () =
  let a = Alloc.create ~first_block:0 () in
  let b = Alloc.alloc a in
  Alloc.incref a b;
  Alloc.decref a b;
  check_int "still live" 1 (Alloc.refcount a b);
  let freed = ref [] in
  Alloc.add_on_free a (fun blk -> freed := blk :: !freed);
  Alloc.decref a b;
  Alcotest.(check (list int)) "hook fired" [ b ] !freed;
  check_bool "double free rejected" true
    (try
       Alloc.decref a b;
       false
     with Invalid_argument _ -> true)

(* A count is 4 bytes: at 2^30 references it raises rather than wraps.
   Reaching the limit takes 2^30 increfs, so the test is slow. *)
let test_alloc_refs_limit () =
  let limit = 1 lsl 30 in
  let a = Alloc.create ~first_block:0 () in
  let b = Alloc.alloc a in
  for _ = 2 to limit do
    Alloc.incref a b
  done;
  check_int "at the limit" limit (Alloc.refcount a b);
  let raises f = try f (); false with Invalid_argument _ -> true in
  check_bool "incref past the limit raises" true (raises (fun () -> Alloc.incref a b));
  check_bool "so does mark_live" true (raises (fun () -> Alloc.mark_live a b));
  check_int "the count stays at the limit" limit (Alloc.refcount a b);
  Alloc.decref a b;
  Alloc.mark_live a b;
  check_int "back to the limit" limit (Alloc.refcount a b)

let test_alloc_capacity () =
  let a = Alloc.create ~first_block:0 ~capacity_blocks:2 () in
  ignore (Alloc.alloc a);
  ignore (Alloc.alloc a);
  check_bool "full" true
    (try
       ignore (Alloc.alloc a);
       false
     with Alloc.Out_of_space -> true);
  (* Freeing makes space again: the condition is transient, not fatal. *)
  Alloc.decref a 0;
  check_int "freed block allocatable" 0 (Alloc.alloc a)

(* The allocator as it was with a hash table for the refcounts: the
   reference the array-backed [Alloc] is compared against. The pressure
   hook is left out; no operation below sets one. *)
module Ref_alloc = struct
  type t = {
    first_block : int;
    capacity_blocks : int option;
    stripes : int;
    refs : (int, int) Hashtbl.t;
    mutable free_list : int list;
    mutable next_fresh : int;
    mutable live : int;
    mutable on_free : (int -> unit) list;
    mutable defer_frees : bool;
    mutable parked : int list;
  }

  exception Out_of_space

  let create ~first_block ?capacity_blocks ?(stripes = 1) () =
    { first_block; capacity_blocks; stripes; refs = Hashtbl.create 64; free_list = [];
      next_fresh = first_block; live = 0; on_free = []; defer_frees = false; parked = [] }

  let add_on_free t f = t.on_free <- t.on_free @ [ f ]
  let set_deferred_frees t v = t.defer_frees <- v

  let take_parked t =
    let p = t.parked in
    t.parked <- [];
    p

  let release t blocks = t.free_list <- blocks @ t.free_list

  let alloc t =
    match t.free_list with
    | b :: rest ->
      t.free_list <- rest;
      Hashtbl.replace t.refs b 1;
      t.live <- t.live + 1;
      b
    | [] ->
      let b = t.next_fresh in
      (match t.capacity_blocks with
       | Some cap when b >= cap -> raise Out_of_space
       | _ ->
         t.next_fresh <- b + 1;
         Hashtbl.replace t.refs b 1;
         t.live <- t.live + 1;
         b)

  (* An extent that fresh space cannot hold takes its blocks one at a
     time, freed ones first; only an extent that fits skips the tail of
     a partial stripe round into the free list. *)
  let alloc_extent t n =
    if n < 0 then invalid_arg "Alloc.alloc_extent: negative size";
    let start =
      if n < t.stripes || t.next_fresh mod t.stripes = 0 then t.next_fresh
      else (t.next_fresh / t.stripes + 1) * t.stripes
    in
    match t.capacity_blocks with
    | Some cap when start + n > cap -> Array.init n (fun _ -> alloc t)
    | _ ->
      for b = start - 1 downto t.next_fresh do
        t.free_list <- b :: t.free_list
      done;
      t.next_fresh <- start + n;
      t.live <- t.live + n;
      Array.init n (fun i ->
          let b = start + i in
          Hashtbl.replace t.refs b 1;
          b)

  let refcount t block = Option.value ~default:0 (Hashtbl.find_opt t.refs block)

  let incref t block =
    match Hashtbl.find_opt t.refs block with
    | Some n when n > 0 -> Hashtbl.replace t.refs block (n + 1)
    | Some _ | None -> invalid_arg (Printf.sprintf "Alloc.incref: dead block %d" block)

  let decref t block =
    match Hashtbl.find_opt t.refs block with
    | Some n when n > 1 -> Hashtbl.replace t.refs block (n - 1)
    | Some 1 ->
      Hashtbl.remove t.refs block;
      if t.defer_frees then t.parked <- block :: t.parked
      else t.free_list <- block :: t.free_list;
      t.live <- t.live - 1;
      List.iter (fun f -> f block) t.on_free
    | Some _ | None -> invalid_arg (Printf.sprintf "Alloc.decref: dead block %d" block)

  let live_blocks t = t.live
  let bump_fresh t block = if block >= t.next_fresh then t.next_fresh <- block + 1

  let mark_live t block =
    (match Hashtbl.find_opt t.refs block with
     | Some n -> Hashtbl.replace t.refs block (n + 1)
     | None ->
       Hashtbl.replace t.refs block 1;
       t.live <- t.live + 1);
    if block >= t.next_fresh then t.next_fresh <- block + 1

  let reset t =
    Hashtbl.reset t.refs;
    t.free_list <- [];
    t.parked <- [];
    t.next_fresh <- t.first_block;
    t.live <- 0
end

(* [Incref], [Decref] and [Mark_live] name a block by its position
   among the blocks seen so far, or, at a negative position -k, as block
   [first_block + k], which may never have been allocated. [Mark_live]
   and [Bump_fresh] reach 6,000, several times the allocator's initial
   array size. *)
type alloc_op =
  | Alloc_one
  | Extent of int
  | Incref of int
  | Decref of int
  | Defer of bool
  | Take_release
  | Mark_live of int
  | Bump_fresh of int
  | Reset

let alloc_op_gen =
  let open QCheck.Gen in
  frequency
    [
      (6, return Alloc_one);
      (2, map (fun n -> Extent n) (int_range 0 9));
      (5, map (fun i -> Incref i) (int_range (-20) 400));
      (7, map (fun i -> Decref i) (int_range (-20) 400));
      (1, map (fun b -> Defer b) bool);
      (1, return Take_release);
      (2, map (fun i -> Mark_live i) (int_range (-6000) 400));
      (1, map (fun b -> Bump_fresh b) (int_range 0 6000));
      (1, return Reset);
    ]

let show_alloc_op = function
  | Alloc_one -> "alloc"
  | Extent n -> Printf.sprintf "extent %d" n
  | Incref i -> Printf.sprintf "incref #%d" i
  | Decref i -> Printf.sprintf "decref #%d" i
  | Defer b -> Printf.sprintf "defer %b" b
  | Take_release -> "take+release"
  | Mark_live i -> Printf.sprintf "mark_live #%d" i
  | Bump_fresh b -> Printf.sprintf "bump_fresh %d" b
  | Reset -> "reset"

let prop_alloc_matches_reference =
  QCheck.Test.make ~name:"alloc agrees with the hashtable reference" ~count:200
    (QCheck.make
       ~print:(fun (stripes, cap, ops) ->
         Printf.sprintf "stripes %d, capacity %s: %s" stripes
           (match cap with Some c -> string_of_int c | None -> "none")
           (String.concat "; " (List.map show_alloc_op ops)))
       QCheck.Gen.(
         triple (int_range 1 4) (opt (int_range 8 300))
           (list_size (int_range 1 300) alloc_op_gen)))
    (fun (stripes, cap, ops) ->
      let first_block = 4 in
      let capacity_blocks = Option.map (fun c -> first_block + c) cap in
      let a = Alloc.create ~first_block ?capacity_blocks ~stripes () in
      let r = Ref_alloc.create ~first_block ?capacity_blocks ~stripes () in
      let freed_a = ref [] and freed_r = ref [] in
      Alloc.add_on_free a (fun b -> freed_a := b :: !freed_a);
      Ref_alloc.add_on_free r (fun b -> freed_r := b :: !freed_r);
      let seen = Hashtbl.create 64 and order = ref [||] in
      let see b =
        if not (Hashtbl.mem seen b) then begin
          Hashtbl.replace seen b ();
          order := Array.append !order [| b |]
        end
      in
      let target i =
        if i < 0 || Array.length !order = 0 then first_block + abs i
        else !order.(i mod Array.length !order)
      in
      let outcome f =
        match f () with
        | blocks -> Ok blocks
        | exception Invalid_argument m -> Error ("Invalid_argument " ^ m)
        | exception (Alloc.Out_of_space | Ref_alloc.Out_of_space) -> Error "Out_of_space"
      in
      List.iteri
        (fun step op ->
          let got, want =
            match op with
            | Alloc_one ->
              (outcome (fun () -> [ Alloc.alloc a ]), outcome (fun () -> [ Ref_alloc.alloc r ]))
            | Extent n ->
              ( outcome (fun () -> Array.to_list (Alloc.alloc_extent a n)),
                outcome (fun () -> Array.to_list (Ref_alloc.alloc_extent r n)) )
            | Incref i ->
              let b = target i in
              see b;
              ( outcome (fun () -> Alloc.incref a b; []),
                outcome (fun () -> Ref_alloc.incref r b; []) )
            | Decref i ->
              let b = target i in
              see b;
              ( outcome (fun () -> Alloc.decref a b; []),
                outcome (fun () -> Ref_alloc.decref r b; []) )
            | Defer v ->
              Alloc.set_deferred_frees a v;
              Ref_alloc.set_deferred_frees r v;
              (Ok [], Ok [])
            | Take_release ->
              let pa = Alloc.take_parked a and pr = Ref_alloc.take_parked r in
              Alloc.release a pa;
              Ref_alloc.release r pr;
              (Ok pa, Ok pr)
            | Mark_live i ->
              let b = target i in
              see b;
              Alloc.mark_live a b;
              Ref_alloc.mark_live r b;
              (Ok [], Ok [])
            | Bump_fresh b ->
              Alloc.bump_fresh a b;
              Ref_alloc.bump_fresh r b;
              (Ok [], Ok [])
            | Reset ->
              Alloc.reset a;
              Ref_alloc.reset r;
              (Ok [], Ok [])
          in
          let fail what =
            QCheck.Test.fail_reportf "step %d (%s): %s differs" step (show_alloc_op op) what
          in
          if got <> want then fail "result";
          (match got with Ok blocks -> List.iter see blocks | Error _ -> ());
          Hashtbl.iter
            (fun b () -> if Alloc.refcount a b <> Ref_alloc.refcount r b then fail (Printf.sprintf "refcount of %d" b))
            seen;
          if Alloc.live_blocks a <> Ref_alloc.live_blocks r then fail "live_blocks";
          if !freed_a <> !freed_r then fail "on_free sequence";
          if Alloc.refcount a (-1) <> 0 || Alloc.refcount a min_int <> 0 then
            fail "refcount of a negative block")
        ops;
      true)

(* ------------------------------------------------------------------ *)
(* Btree                                                               *)
(* ------------------------------------------------------------------ *)

let mktree () =
  let _, dev = mkdev () in
  let alloc = Alloc.create ~first_block:2 () in
  (dev, alloc, Btree.create ~dev ~alloc)

let test_btree_insert_find () =
  let _, _, t = mktree () in
  Btree.begin_epoch t 1;
  let root = ref (Btree.empty_root t) in
  for i = 0 to 999 do
    root := Btree.insert t ~root:!root ~key:(Int64.of_int (i * 7)) (Btree.Imm (Int64.of_int i))
  done;
  for i = 0 to 999 do
    match Btree.find t ~root:!root (Int64.of_int (i * 7)) with
    | Some (Btree.Imm v) -> check_bool "value" true (Int64.to_int v = i)
    | _ -> Alcotest.failf "missing key %d" (i * 7)
  done;
  check_bool "absent key" true (Btree.find t ~root:!root 3L = None);
  check_bool "tree grew levels" true (Btree.node_depth t ~root:!root >= 2)

let test_btree_replace () =
  let _, alloc, t = mktree () in
  Btree.begin_epoch t 1;
  let root = ref (Btree.empty_root t) in
  let b1 = Alloc.alloc alloc in
  root := Btree.insert t ~root:!root ~key:5L (Btree.Ptr b1);
  let b2 = Alloc.alloc alloc in
  root := Btree.insert t ~root:!root ~key:5L (Btree.Ptr b2);
  check_int "replaced ptr freed" 0 (Alloc.refcount alloc b1);
  (match Btree.find t ~root:!root 5L with
   | Some (Btree.Ptr b) -> check_int "new value" b2 b
   | _ -> Alcotest.fail "lost key")

let test_btree_snapshot_isolation () =
  (* A committed root must keep answering with old values after new
     epochs modify the tree. *)
  let _, _, t = mktree () in
  Btree.begin_epoch t 1;
  let root1 = ref (Btree.empty_root t) in
  for i = 0 to 499 do
    root1 := Btree.insert t ~root:!root1 ~key:(Int64.of_int i) (Btree.Imm (Int64.of_int i))
  done;
  let snapshot = !root1 in
  Btree.retain_root t snapshot;
  Btree.begin_epoch t 2;
  let root2 = ref snapshot in
  Btree.retain_root t !root2;
  for i = 0 to 499 do
    if i mod 2 = 0 then
      root2 :=
        Btree.insert t ~root:!root2 ~key:(Int64.of_int i)
          (Btree.Imm (Int64.of_int (i + 1000)))
  done;
  (* Old snapshot unchanged. *)
  (match Btree.find t ~root:snapshot 10L with
   | Some (Btree.Imm v) -> check_bool "old value" true (Int64.equal v 10L)
   | _ -> Alcotest.fail "snapshot lost key");
  (* New root updated. *)
  (match Btree.find t ~root:!root2 10L with
   | Some (Btree.Imm v) -> check_bool "new value" true (Int64.equal v 1010L)
   | _ -> Alcotest.fail "new root lost key");
  (match Btree.find t ~root:!root2 11L with
   | Some (Btree.Imm v) -> check_bool "shared value" true (Int64.equal v 11L)
   | _ -> Alcotest.fail "shared key lost")

let test_btree_release_frees_all () =
  let _, alloc, t = mktree () in
  Btree.begin_epoch t 1;
  let root = ref (Btree.empty_root t) in
  for i = 0 to 2000 do
    root := Btree.insert t ~root:!root ~key:(Int64.of_int i) (Btree.Imm 0L)
  done;
  check_bool "many blocks live" true (Alloc.live_blocks alloc > 10);
  Btree.release_root t !root;
  check_int "everything freed" 0 (Alloc.live_blocks alloc)

let test_btree_release_preserves_shared () =
  let _, alloc, t = mktree () in
  Btree.begin_epoch t 1;
  let root1 = ref (Btree.empty_root t) in
  for i = 0 to 1000 do
    root1 := Btree.insert t ~root:!root1 ~key:(Int64.of_int i) (Btree.Imm (Int64.of_int i))
  done;
  let snap = !root1 in
  Btree.retain_root t snap;
  Btree.begin_epoch t 2;
  let root2 = ref snap in
  Btree.retain_root t !root2;
  for i = 0 to 20 do
    root2 := Btree.insert t ~root:!root2 ~key:(Int64.of_int i) (Btree.Imm 99L)
  done;
  (* Release the new tree: the snapshot must stay fully readable. *)
  Btree.release_root t !root2;
  for i = 0 to 1000 do
    match Btree.find t ~root:snap (Int64.of_int i) with
    | Some (Btree.Imm v) -> check_bool "intact" true (Int64.to_int v = i)
    | _ -> Alcotest.failf "snapshot lost key %d after release" i
  done;
  (* And releasing the snapshot (twice: its own ref + the retained
     one) frees everything. *)
  Btree.release_root t snap;
  Btree.release_root t snap;
  check_int "all freed" 0 (Alloc.live_blocks alloc)

let test_btree_persist_and_reread () =
  let _, dev = mkdev () in
  let alloc = Alloc.create ~first_block:2 () in
  let t = Btree.create ~dev ~alloc in
  Btree.begin_epoch t 1;
  let root = ref (Btree.empty_root t) in
  for i = 0 to 500 do
    root := Btree.insert t ~root:!root ~key:(Int64.of_int i) (Btree.Imm (Int64.of_int (2 * i)))
  done;
  let done_at = Btree.flush_dirty t in
  Devarray.await dev done_at;
  Btree.drop_cache t;
  check_int "cache empty" 0 (Btree.cached_count t);
  (* Reads now hit the device and still return the data. *)
  (match Btree.find t ~root:!root 321L with
   | Some (Btree.Imm v) -> check_bool "persisted value" true (Int64.equal v 642L)
   | _ -> Alcotest.fail "lost after reread");
  check_bool "device reads happened" true ((Devarray.stats dev).Blockdev.reads > 0)

(* Node cache: what [flush_dirty] writes, and the cache counters. *)

(* Flushes [t] and returns the blocks written, in submission order. *)
let flush_blocks dev t =
  let written = ref [] in
  let tee blocks _ =
    written := Array.to_list blocks;
    ([||], [||])
  in
  Devarray.await dev (Btree.flush_dirty ~tee t);
  !written

let fill_tree t ~root keys =
  List.fold_left
    (fun root k -> Btree.insert t ~root ~key:(Int64.of_int k) (Btree.Imm (Int64.of_int k)))
    root keys

let test_btree_freed_dirty_not_written () =
  let dev, _, t = mktree () in
  Btree.begin_epoch t 1;
  let doomed = fill_tree t ~root:(Btree.empty_root t) (List.init 1000 Fun.id) in
  let kept = fill_tree t ~root:(Btree.empty_root t) [ 1; 2; 3 ] in
  check_bool "doomed tree spans several nodes" true (Btree.node_depth t ~root:doomed = 2);
  Btree.release_root t doomed;
  check_int "only the kept leaf is dirty" 1 (Btree.dirty_count t);
  Alcotest.(check (list int)) "only the kept leaf is written" [ kept ] (flush_blocks dev t)

let test_btree_reused_block_written_once () =
  let dev, _, t = mktree () in
  Btree.begin_epoch t 1;
  let old_root = fill_tree t ~root:(Btree.empty_root t) [ 1 ] in
  Btree.release_root t old_root;
  let root = fill_tree t ~root:(Btree.empty_root t) [ 2 ] in
  check_int "the freed block is reused" old_root root;
  Alcotest.(check (list int)) "written once" [ root ] (flush_blocks dev t);
  Btree.drop_cache t;
  check_bool "with the new node's bytes" true
    (Btree.find t ~root 2L = Some (Btree.Imm 2L) && Btree.find t ~root 1L = None)

let test_btree_flush_ascending () =
  let dev, alloc, t = mktree () in
  Btree.begin_epoch t 1;
  let first = fill_tree t ~root:(Btree.empty_root t) (List.init 3000 Fun.id) in
  ignore (flush_blocks dev t);
  (* Releasing the first tree stacks its blocks on the free list, so the
     second tree's nodes are allocated in descending block order. *)
  Btree.begin_epoch t 2;
  Btree.release_root t first;
  let second = fill_tree t ~root:(Btree.empty_root t) (List.init 3000 (fun i -> 3000 - i)) in
  let written = flush_blocks dev t in
  check_int "every node written" (Alloc.live_blocks alloc) (List.length written);
  check_bool "in strictly ascending block order" true
    (List.sort_uniq Int.compare written = written);
  check_bool "readable" true (Btree.find t ~root:second 1500L = Some (Btree.Imm 1500L))

let test_btree_cache_counts () =
  let dev, alloc, t = mktree () in
  Btree.begin_epoch t 1;
  let root = fill_tree t ~root:(Btree.empty_root t) (List.init 1000 Fun.id) in
  let nodes = Alloc.live_blocks alloc in
  check_int "every node cached" nodes (Btree.cached_count t);
  check_int "every node dirty" nodes (Btree.dirty_count t);
  check_bool "drop_cache refuses dirty nodes" true
    (match Btree.drop_cache t with () -> false | exception Invalid_argument _ -> true);
  ignore (flush_blocks dev t);
  check_int "clean after the flush" 0 (Btree.dirty_count t);
  (* Still epoch 1: the first leaf is owned and mutated in place. *)
  let root = Btree.insert t ~root ~key:(-1L) (Btree.Imm 0L) in
  check_int "the path mutated after the flush is dirty again" 2 (Btree.dirty_count t);
  ignore (flush_blocks dev t);
  Btree.drop_cache t;
  check_int "drop_cache empties the cache" 0 (Btree.cached_count t);
  check_bool "the second flush wrote the mutation" true
    (Btree.find t ~root (-1L) = Some (Btree.Imm 0L));
  check_int "a lookup caches its path" 2 (Btree.cached_count t);
  Btree.begin_epoch t 2;
  ignore (Btree.insert t ~root ~key:5L (Btree.Imm 0L));
  check_int "the copied root and leaf are dirty" 2 (Btree.dirty_count t);
  Btree.reset_cache t;
  check_int "reset_cache empties the cache" 0 (Btree.cached_count t);
  check_int "and forgets dirty nodes" 0 (Btree.dirty_count t);
  Alcotest.(check (list int)) "nothing left to write" [] (flush_blocks dev t)

(* [Alloc.incref]/[decref] run hundreds of thousands of times per
   checkpoint round and may allocate nothing. A warm [Btree.find]
   builds only what it returns: leaves hold their entries unboxed, so
   a lookup allocates exactly its [Some] and the value (2 words each),
   plus the [int64] box of an [Imm] (3 words) — the same for every
   lookup, whatever the node's size. No per-page path calls [find]:
   those are [page_map] and [put_pages], pinned below. *)
let test_hot_paths_allocate_nothing () =
  let a = Alloc.create ~first_block:2 () in
  let blocks = Array.init 5000 (fun _ -> Alloc.alloc a) in
  Gc.minor ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 20 do
    for i = 0 to Array.length blocks - 1 do
      Alloc.incref a blocks.(i)
    done;
    for i = 0 to Array.length blocks - 1 do
      Alloc.decref a blocks.(i)
    done
  done;
  Gc.minor ();
  let dw = Gc.minor_words () -. w0 in
  check_bool (Printf.sprintf "incref/decref allocate nothing (%.0f minor words)" dw) true
    (dw < 64.);
  let keys = Array.init 5000 Int64.of_int in
  let lookup_words ~value =
    let dev, alloc, t = mktree () in
    Btree.begin_epoch t 1;
    let root =
      Array.fold_left
        (fun root k -> Btree.insert t ~root ~key:k (value alloc k))
        (Btree.empty_root t) keys
    in
    ignore (flush_blocks dev t);
    Array.iter (fun k -> ignore (Btree.find t ~root k)) keys;
    let found = ref 0 in
    Gc.minor ();
    let w0 = Gc.minor_words () in
    for i = 0 to Array.length keys - 1 do
      match Btree.find t ~root keys.(i) with Some _ -> incr found | None -> ()
    done;
    Gc.minor ();
    let dw = Gc.minor_words () -. w0 in
    check_int "every key found" (Array.length keys) !found;
    dw /. float_of_int (Array.length keys)
  in
  let imm = lookup_words ~value:(fun _ k -> Btree.Imm k) in
  let ptr = lookup_words ~value:(fun alloc _ -> Btree.Ptr (Alloc.alloc alloc)) in
  check_bool
    (Printf.sprintf "a warm find of an Imm allocates Some, Imm and its box (%.3f words)" imm)
    true (Float.abs (imm -. 7.) < 0.02);
  check_bool (Printf.sprintf "a warm find of a Ptr allocates Some and Ptr (%.3f words)" ptr)
    true (Float.abs (ptr -. 4.) < 0.02)

(* Words [f] allocates in either heap: arrays longer than 256 words go
   straight to the major heap, which [Gc.minor_words] does not see. *)
let words_of f =
  Gc.minor ();
  let minor0, promoted0, major0 = Gc.counters () in
  let r = f () in
  Gc.minor ();
  let minor1, promoted1, major1 = Gc.counters () in
  (r, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

(* The restore page path, per page of a 4,096-page object on a warm
   tree: listing the object's pages, and a batched read of their
   blocks beyond the array of pages it returns. *)
let test_restore_page_path_allocation () =
  let npages = 4096 in
  List.iter
    (fun stripes ->
      let _, dev = mkdev ~stripes () in
      let s = Store.format ~dev () in
      ignore (Store.begin_generation s ());
      Store.put_pages s ~oid:1 (Array.init npages (fun i -> (i, Int64.of_int (i + 1))));
      let g, d = Store.commit s () in
      Store.wait_durable s d;
      ignore (Store.page_map s g ~oid:1);
      let map, words = words_of (fun () -> Store.page_map s g ~oid:1) in
      let per_page = words /. float_of_int npages in
      check_int "every page listed" npages (Array.length map.Store.blocks);
      check_bool
        (Printf.sprintf "page map: %.2f words per page on %d stripes" per_page stripes)
        true (per_page <= 6.);
      let seeds, words = words_of (fun () -> Store.read_page_blocks s map.Store.blocks) in
      let per_block = (words -. float_of_int (npages + 1)) /. float_of_int npages in
      check_int "every page read" npages (Array.length seeds);
      check_bool
        (Printf.sprintf "batched read: %.2f words per block beyond its result on %d stripes"
           per_block stripes)
        true (per_block <= 1.05))
    [ 1; 4 ]

(* The object store's two per-page paths, per page of a 4,096-page
   object. Listing its pages right after [drop_caches] keeps each leaf
   block's bytes as its image, so a page costs the two ints the map
   returns and a share of its leaf's record and read. Re-capturing the
   committed object with every seed changed, through the [put_pages]
   view, costs the view's two columns, the page's hash slot, its key
   and value, its boxed seed and its slots of the queued chunk, and its
   share of the copied leaves and of the batch's table of misses; the
   dedup index and the insert allocate nothing per page of their own. *)
let test_store_per_page_allocation () =
  let npages = 4096 in
  let _, dev = mkdev () in
  let s = Store.format ~dev () in
  ignore (Store.begin_generation s ());
  Store.put_pages s ~oid:1 (Array.init npages (fun i -> (i, Int64.of_int (i + 1))));
  let g, d = Store.commit s () in
  Store.wait_durable s d;
  Store.drop_caches s;
  let map, words = words_of (fun () -> Store.page_map s g ~oid:1) in
  let per_page = words /. float_of_int npages in
  check_int "every page listed" npages (Array.length map.Store.blocks);
  check_bool (Printf.sprintf "cold page map: %.2f words per page" per_page) true
    (per_page <= 2.5);
  (* Each round re-captures the object with every seed changed and then
     keeps only the newest generation. The first round grows the dedup
     index to the size it keeps; the second is measured. *)
  let recapture round =
    ignore (Store.begin_generation s ());
    let pages = Array.init npages (fun i -> (i, Int64.of_int ((round * npages) + i + 1))) in
    let (), words = words_of (fun () -> Store.put_pages s ~oid:1 pages) in
    let g, d = Store.commit s () in
    Store.wait_durable s d;
    ignore (Store.gc s ~keep:[ g ]);
    check_bool "the new seeds are read back" true
      (Store.read_page s g ~oid:1 ~pindex:(npages - 1) = Some (Int64.of_int ((round + 1) * npages)));
    words /. float_of_int npages
  in
  ignore (recapture 1);
  let per_page = recapture 2 in
  check_bool (Printf.sprintf "re-capture: %.2f words per page" per_page) true (per_page <= 30.5)

(* One epoch over a committed 65,536-key tree that replaces one key in
   every leaf. The inserts copy each leaf once, at its exact size, plus
   a share of the internal nodes above it. The flush hands the device
   each copied leaf image as it is, so a node costs its write and no
   copy. Right after [drop_cache], a fold keeps each block's bytes as
   its leaf, so an entry costs only a share of its node's record. A
   next epoch that adds a key to every leaf copies each once, at
   capacity. *)
let test_btree_epoch_allocation () =
  let _, dev = mkdev () in
  let alloc = Alloc.create ~first_block:2 () in
  let t = Btree.create ~dev ~alloc in
  let nkeys = 65_536 in
  Btree.begin_epoch t 1;
  let root = ref (Btree.empty_root t) in
  for k = 0 to nkeys - 1 do
    root := Btree.insert t ~root:!root ~key:(Int64.of_int (2 * k)) (Btree.Ptr (Alloc.alloc alloc))
  done;
  Devarray.await dev (Btree.flush_dirty t);
  Btree.retain_root t !root;
  let rec first_keys acc block =
    match Btree.view t block with
    | Btree.Leaf_view [] -> acc
    | Btree.Leaf_view ((k, _) :: _) -> k :: acc
    | Btree.Internal_view children -> List.fold_left first_keys acc children
  in
  let keys = Array.of_list (first_keys [] !root) in
  let values = Array.map (fun _ -> Btree.Ptr (Alloc.alloc alloc)) keys in
  let leaves = float_of_int (Array.length keys) in
  Btree.begin_epoch t 2;
  let (), words =
    words_of (fun () ->
        Array.iteri (fun i key -> root := Btree.insert t ~root:!root ~key values.(i)) keys)
  in
  check_bool (Printf.sprintf "inserts: %.0f words per copied leaf" (words /. leaves)) true
    (words /. leaves <= 250.);
  let nodes = Btree.dirty_count t in
  let (), words = words_of (fun () -> Devarray.await dev (Btree.flush_dirty t)) in
  let per_node = words /. float_of_int nodes in
  check_bool (Printf.sprintf "flush: %.0f words per node" per_node) true (per_node <= 120.);
  Btree.drop_cache t;
  let entries, words =
    words_of (fun () ->
        Btree.fold_ptrs t ~root:!root ~lo:Int64.min_int ~hi:Int64.max_int ~init:0
          ~f:(fun n _ _ -> n + 1))
  in
  check_int "every entry folded" nkeys entries;
  let per_entry = words /. float_of_int nkeys in
  check_bool (Printf.sprintf "cold fold: %.2f words per entry" per_entry) true
    (per_entry <= 0.5);
  let values = Array.map (fun _ -> Btree.Ptr (Alloc.alloc alloc)) keys in
  Btree.retain_root t !root;
  Btree.begin_epoch t 3;
  let (), words =
    words_of (fun () ->
        Array.iteri
          (fun i key -> root := Btree.insert t ~root:!root ~key:(Int64.succ key) values.(i))
          keys)
  in
  check_bool (Printf.sprintf "adding inserts: %.0f words per copied leaf" (words /. leaves)) true
    (words /. leaves <= 500.)

let test_btree_fold_range () =
  let _, _, t = mktree () in
  Btree.begin_epoch t 1;
  let root = ref (Btree.empty_root t) in
  for i = 0 to 299 do
    root := Btree.insert t ~root:!root ~key:(Int64.of_int i) (Btree.Imm (Int64.of_int i))
  done;
  let keys =
    Btree.fold_range t ~root:!root ~lo:100L ~hi:110L ~init:[] ~f:(fun acc k _ -> k :: acc)
  in
  Alcotest.(check (list int))
    "range keys in order"
    [ 100; 101; 102; 103; 104; 105; 106; 107; 108; 109; 110 ]
    (List.rev_map Int64.to_int keys)

(* Runs each epoch's inserts in its own generation over key spaces of
   thousands of keys, so leaves and internal nodes split across epochs,
   and retains every epoch's final root beside a copy of the model at
   that point. Even values are stored as [Imm], odd ones as a fresh
   [Ptr] block the tree takes over. Returns the snapshots and a
   [release] that drops every root and reports whether the allocator is
   back to its starting live count (no node or value leaked or freed
   twice — a double free raises). *)
let build_epochs epochs =
  let _, alloc, t = mktree () in
  let live0 = Alloc.live_blocks alloc in
  let model = Hashtbl.create 1024 in
  Btree.begin_epoch t 1;
  let root = ref (Btree.empty_root t) in
  let snaps = ref [] in
  List.iteri
    (fun e ops ->
      Btree.begin_epoch t (e + 1);
      List.iter
        (fun (k, v) ->
          let value =
            if v mod 2 = 0 then Btree.Imm (Int64.of_int v) else Btree.Ptr (Alloc.alloc alloc)
          in
          Hashtbl.replace model k value;
          root := Btree.insert t ~root:!root ~key:(Int64.of_int k) value)
        ops;
      Btree.retain_root t !root;
      snaps := (!root, Hashtbl.copy model) :: !snaps)
    epochs;
  let release () =
    List.iter (fun (r, _) -> Btree.release_root t r) !snaps;
    Btree.release_root t !root;
    Alloc.live_blocks alloc = live0
  in
  (t, List.rev !snaps, release)

let model_range model ~lo ~hi =
  Hashtbl.fold (fun k v acc -> if k >= lo && k <= hi then (k, v) :: acc else acc) model []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let tree_range t root ~lo ~hi =
  Btree.fold_range t ~root ~lo:(Int64.of_int lo) ~hi:(Int64.of_int hi) ~init:[]
    ~f:(fun acc k v -> (Int64.to_int k, v) :: acc)
  |> List.rev

let epochs_gen ops = QCheck.(list_of_size Gen.(int_range 2 4) ops)

let prop_btree_matches_hashtable =
  QCheck.Test.make ~name:"btree agrees with a model hashtable" ~count:40
    (epochs_gen QCheck.(list_of_size Gen.(int_range 1 1500) (pair (int_bound 5000) small_int)))
    (fun epochs ->
      let t, snaps, release = build_epochs epochs in
      let reads_own_version (root, model) =
        Hashtbl.fold
          (fun k v ok -> ok && Btree.find t ~root (Int64.of_int k) = Some v)
          model true
        && Btree.find t ~root (-1L) = None
        && Btree.find t ~root 5001L = None
        && tree_range t root ~lo:0 ~hi:5000 = model_range model ~lo:0 ~hi:5000
      in
      let ok = List.for_all reads_own_version snaps in
      release () && ok)

let prop_btree_fold_range_matches_model =
  QCheck.Test.make ~name:"fold_range returns exactly the model's keys in order" ~count:40
    QCheck.(triple
              (epochs_gen (list_of_size Gen.(int_range 1 1500)
                             (pair (int_bound 5000) small_int)))
              (int_bound 5000) (int_bound 5000))
    (fun (epochs, a, b) ->
      let lo = min a b and hi = max a b in
      let t, snaps, release = build_epochs epochs in
      let ok =
        List.for_all
          (fun (root, model) -> tree_range t root ~lo ~hi = model_range model ~lo ~hi)
          snaps
      in
      release () && ok)

(* Flushes [t], logging each node write as its block and the digest of
   its bytes. *)
let flush_logged log dev t =
  let tee blocks contents =
    Array.iteri
      (fun i b ->
        match contents.(i) with
        | Blockdev.Data s -> Printf.bprintf log "%d:%s\n" b (Digest.to_hex (Digest.string s))
        | Blockdev.Seed _ | Blockdev.Zero -> Alcotest.failf "block %d is not a node" b)
      blocks;
    ([||], [||])
  in
  Devarray.await dev (Btree.flush_dirty ~tee t)

(* Pins the on-disk node format and the allocation order. A fixed
   three-epoch sequence — leaf and internal splits, Imm and Ptr
   replacements, and a released snapshot whose blocks are then reused —
   is hashed over every (block, bytes) pair the flushes write. Another
   digest means existing images would decode differently or nodes
   would land on other blocks. *)
let test_btree_golden_format () =
  let _, dev = mkdev () in
  let alloc = Alloc.create ~first_block:2 () in
  let t = Btree.create ~dev ~alloc in
  let log = Buffer.create 65536 in
  let flush () = flush_logged log dev t in
  let root = ref 0 in
  let ins k v = root := Btree.insert t ~root:!root ~key:(Int64.of_int k) v in
  Btree.begin_epoch t 1;
  root := Btree.empty_root t;
  (* Ascending even keys: past about 20,200 the root internal node
     splits too. *)
  for i = 0 to 21_999 do
    ins (2 * i) (if i mod 5 = 0 then Btree.Ptr (Alloc.alloc alloc) else Btree.Imm (Int64.of_int i))
  done;
  flush ();
  let gen1 = !root in
  Btree.retain_root t gen1;
  Btree.begin_epoch t 2;
  (* Scattered replacements of even keys (dropping Ptr values) and new
     odd keys that split copied leaves. *)
  for i = 0 to 2_999 do
    ins ((i * 7_919) mod 44_000)
      (if i mod 3 = 0 then Btree.Ptr (Alloc.alloc alloc) else Btree.Imm (Int64.of_int (-i)))
  done;
  flush ();
  (* Blocks only generation 1 used are freed and reused below. *)
  Btree.release_root t gen1;
  Btree.begin_epoch t 3;
  for i = 0 to 1_999 do
    ins (50_001 + (2 * i)) (Btree.Imm 7L)
  done;
  flush ();
  Printf.bprintf log "root %d live %d\n" !root (Alloc.live_blocks alloc);
  Alcotest.(check string) "flushed nodes digest" "64d39cfaf8c3d82806ca395d0d733a90"
    (Digest.to_hex (Digest.string (Buffer.contents log)))

(* A second pin, beside the golden format test, that the node layout
   changes no allocator call, COW copy or split point. A fixed sequence
   of mostly same-leaf inserts — ascending runs broken by jumps to other
   leaves, two trees inserting in turn, flushes in the middle and at the
   end of a run, runs of replacements in leaves copied from a retained
   snapshot, negative keys, and a released snapshot whose blocks are
   then reused — is hashed over every (block, bytes) pair the flushes
   write, the final roots and the live block count.
   The digest was computed on the tree as it was when each cached node
   held a box per entry. *)
let test_btree_descent_golden () =
  let _, dev = mkdev () in
  let alloc = Alloc.create ~first_block:2 () in
  let t = Btree.create ~dev ~alloc in
  let log = Buffer.create 65536 in
  let flush () = flush_logged log dev t in
  let ins root k v = root := Btree.insert t ~root:!root ~key:(Int64.of_int k) v in
  let value i =
    if i mod 7 = 0 then Btree.Ptr (Alloc.alloc alloc) else Btree.Imm (Int64.of_int (31 * i))
  in
  let a = ref 0 and b = ref 0 in
  Btree.begin_epoch t 1;
  a := Btree.empty_root t;
  b := Btree.empty_root t;
  (* Runs of 50 keys in steps of 3 from scattered starts; every fourth
     run goes to the other tree. Every fiftieth run is flushed halfway
     and at its end, so the inserts after a flush must dirty the path
     again as a descent would. *)
  for r = 0 to 399 do
    let start = r * 7_919 mod 100_000 in
    let root = if r mod 4 = 3 then b else a in
    for i = 0 to 49 do
      ins root (start + (3 * i)) (value ((50 * r) + i));
      if r mod 50 = 49 && (i = 24 || i = 49) then flush ()
    done
  done;
  flush ();
  let snap = !a in
  Btree.retain_root t snap;
  Btree.begin_epoch t 2;
  (* Runs of 30 consecutive keys over the snapshot's leaves, replacing
     and adding, some below zero; every tenth run is followed by one
     insert into the other tree. *)
  for r = 0 to 199 do
    let start = (r * 104_729 mod 120_000) - 10_000 in
    for i = 0 to 29 do
      ins a (start + i) (value (r + i))
    done;
    if r mod 10 = 0 then ins b (2 * start) (Btree.Imm 1L)
  done;
  flush ();
  Btree.release_root t snap;
  Btree.begin_epoch t 3;
  (* One long ascending run past every key, into blocks the snapshot
     freed. *)
  for i = 0 to 2_999 do
    ins a (200_000 + i) (value i)
  done;
  flush ();
  Printf.bprintf log "roots %d %d live %d\n" !a !b (Alloc.live_blocks alloc);
  Alcotest.(check string) "flushed nodes digest" "94ecff1fba52618896b50ea67bb2f0ce"
    (Digest.to_hex (Digest.string (Buffer.contents log)))

(* A depth-2 tree written straight to the device in the node format:
   an internal root over [leaves] leaves of [fill] entries each, leaf j
   holding keys 1000j + 2i. *)
let encoded_tree dev alloc ~leaves ~fill =
  let module S = Serial in
  let put f =
    let w = S.writer () in
    f w;
    let b = Alloc.alloc alloc in
    Devarray.write dev b (Blockdev.Data (S.contents w));
    b
  in
  let leaf j w =
    S.w_u8 w 0;
    S.w_int w fill;
    for i = 0 to fill - 1 do
      S.w_int64 w (Int64.of_int ((1000 * j) + (2 * i)));
      S.w_u8 w 0;
      S.w_int64 w 1L
    done
  in
  let children = List.init leaves (fun j -> put (leaf j)) in
  put (fun w ->
      S.w_u8 w 1;
      S.w_list w S.w_int64 (List.init (leaves - 1) (fun j -> Int64.of_int (1000 * (j + 1))));
      S.w_list w S.w_int children)

(* Node counts come from the device. One past [max_entries] still
   decodes and takes inserts (the copy gets room for one more); beyond
   that the node is corrupt, reported as [Serial.Corrupt] for the
   store's heal path rather than an allocation of whatever size the
   block claims. *)
let test_btree_node_count_bounds () =
  let tree ~fill =
    let _, dev = mkdev () in
    let alloc = Alloc.create ~first_block:2 () in
    let t = Btree.create ~dev ~alloc in
    (t, encoded_tree dev alloc ~leaves:2 ~fill)
  in
  let t, root = tree ~fill:201 in
  Btree.begin_epoch t 1;
  let root = Btree.insert t ~root ~key:1L (Btree.Imm 5L) in
  check_bool "inserted" true (Btree.find t ~root 1L = Some (Btree.Imm 5L));
  check_int "all keys kept" 403
    (Btree.fold_range t ~root ~lo:0L ~hi:2000L ~init:0 ~f:(fun n _ _ -> n + 1));
  let t, root = tree ~fill:202 in
  check_bool "oversized leaf is corrupt" true
    (match Btree.find t ~root 0L with
     | _ -> false
     | exception Serial.Corrupt _ -> true)

(* Minor-heap words per insert into a depth-2 tree whose nodes the
   epoch already owns: 1,000 inserts, 8 per leaf, none splitting.
   [~grouped] sends each leaf's 8 inserts in a row, so each goes to the
   leaf the previous insert reached; otherwise consecutive inserts go to
   different leaves. Either way an insert allocates nothing: the split
   state lives in the tree, and entries move as bytes. *)
let insert_words ~fill ~grouped =
  let _, dev = mkdev () in
  let alloc = Alloc.create ~first_block:2 () in
  let t = Btree.create ~dev ~alloc in
  let leaves = 125 in
  let root = ref (encoded_tree dev alloc ~leaves ~fill) in
  Btree.begin_epoch t 1;
  (* One insert per leaf copies the root and every leaf into the epoch. *)
  for j = 0 to leaves - 1 do
    root := Btree.insert t ~root:!root ~key:(Int64.of_int ((1000 * j) + 1)) (Btree.Imm 0L)
  done;
  let keys =
    (* Above every key already in the leaf, so a list-based leaf would
       be copied whole. *)
    Array.init (8 * leaves) (fun n ->
        let leaf, k = if grouped then (n / 8, n mod 8) else (n mod leaves, n / leaves) in
        Int64.of_int ((1000 * leaf) + 999 - (2 * k)))
  in
  let v = Btree.Imm 2L in
  let insert key = root := Btree.insert t ~root:!root ~key v in
  (* OCaml 5 counts words exactly only right after a minor collection. *)
  Gc.minor ();
  let w0 = Gc.minor_words () in
  Array.iter insert keys;
  Gc.minor ();
  let words = (Gc.minor_words () -. w0) /. float_of_int (Array.length keys) in
  check_int "depth" 2 (Btree.node_depth t ~root:!root);
  check_int "every key inserted" ((leaves * (fill + 1)) + Array.length keys)
    (Btree.fold_range t ~root:!root ~lo:0L ~hi:Int64.max_int ~init:0 ~f:(fun n _ _ -> n + 1));
  words

let test_btree_insert_alloc () =
  List.iter
    (fun grouped ->
      let how = if grouped then "into the last leaf" else "into another leaf" in
      let w10 = insert_words ~fill:10 ~grouped and w190 = insert_words ~fill:190 ~grouped in
      check_bool (Printf.sprintf "no words per insert %s (%.2f)" how w190) true (w190 = 0.);
      check_bool (Printf.sprintf "independent of leaf fill %s (%.2f vs %.2f)" how w10 w190)
        true (w10 = w190))
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Store: generations                                                  *)
(* ------------------------------------------------------------------ *)

let test_store_record_roundtrip () =
  let _, dev = mkdev () in
  let s = Store.format ~dev () in
  let g = Store.begin_generation s () in
  Store.put_record s ~oid:7 "metadata for object seven";
  Store.put_record s ~oid:9 (String.make 10_000 'x'); (* multi-chunk *)
  let g', durable = Store.commit s () in
  check_int "same generation" g g';
  Store.wait_durable s durable;
  Alcotest.(check (option string)) "small record" (Some "metadata for object seven")
    (Store.read_record s g ~oid:7);
  (match Store.read_record s g ~oid:9 with
   | Some data -> check_int "multi-chunk length" 10_000 (String.length data)
   | None -> Alcotest.fail "large record lost");
  Alcotest.(check (option string)) "absent oid" None (Store.read_record s g ~oid:99);
  Alcotest.(check (list int)) "oids listed" [ 7; 9 ] (Store.oids s g)

let test_store_record_shrink () =
  let _, dev = mkdev () in
  let s = Store.format ~dev () in
  let g1 = Store.begin_generation s () in
  Store.put_record s ~oid:1 (String.make 9_000 'a');
  ignore (Store.commit s ());
  let g2 = Store.begin_generation s () in
  Store.put_record s ~oid:1 "tiny";
  ignore (Store.commit s ());
  Alcotest.(check (option string)) "shrunk readback" (Some "tiny")
    (Store.read_record s g2 ~oid:1);
  (match Store.read_record s g1 ~oid:1 with
   | Some d -> check_int "old gen intact" 9_000 (String.length d)
   | None -> Alcotest.fail "old generation lost record")

let test_store_pages_and_incremental () =
  let _, dev = mkdev () in
  let s = Store.format ~dev () in
  let g1 = Store.begin_generation s () in
  for i = 0 to 99 do
    put_page s ~oid:1 ~pindex:i ~seed:(Int64.of_int (1000 + i))
  done;
  ignore (Store.commit s ());
  let blocks_full = (Store.stats s).Store.live_blocks in
  (* Incremental: only 5 pages change. *)
  let g2 = Store.begin_generation s () in
  for i = 0 to 4 do
    put_page s ~oid:1 ~pindex:i ~seed:(Int64.of_int (2000 + i))
  done;
  ignore (Store.commit s ());
  let blocks_incr = (Store.stats s).Store.live_blocks in
  (* The increment costs far fewer blocks than the full image. *)
  check_bool "incremental is small" true (blocks_incr - blocks_full < 20);
  (* Both generations read correctly. *)
  (match Store.read_page s g1 ~oid:1 ~pindex:2 with
   | Some seed -> check_bool "old page" true (Int64.equal seed 1002L)
   | None -> Alcotest.fail "g1 page lost");
  (match Store.read_page s g2 ~oid:1 ~pindex:2 with
   | Some seed -> check_bool "new page" true (Int64.equal seed 2002L)
   | None -> Alcotest.fail "g2 page lost");
  (match Store.read_page s g2 ~oid:1 ~pindex:50 with
   | Some seed -> check_bool "inherited page" true (Int64.equal seed 1050L)
   | None -> Alcotest.fail "inherited page lost");
  check_int "page count g2" 100 (Store.page_count s g2 ~oid:1)

(* The restore path lists an object's pages with [page_map] and reads
   them by block. Over random page sets with gaps, large enough to span
   several leaves, and with neighbouring oids and the object's own
   record and blobs around the page range: the map is exactly the pages
   [read_page] finds, ascending, and reading or peeking its blocks gives
   what [read_page] gives. *)
let prop_page_map_matches_read_page =
  QCheck.Test.make ~name:"page_map and block reads agree with read_page" ~count:40
    QCheck.(pair (list_of_size Gen.(int_range 0 700) (int_bound 3000)) (int_range 1 4))
    (fun (indexes, stripes) ->
      let _, dev = mkdev ~stripes () in
      let s = Store.format ~dev () in
      ignore (Store.begin_generation s ());
      Store.put_record s ~oid:5 "the object's own record";
      Store.put_blob s ~oid:5 ~index:0 "a blob after the pages";
      List.iter (fun oid -> put_page s ~oid ~pindex:0 ~seed:(Int64.of_int oid)) [ 4; 6 ];
      List.iter
        (fun i -> put_page s ~oid:5 ~pindex:i ~seed:(Int64.of_int ((7 * i) + 1)))
        indexes;
      let g, d = Store.commit s () in
      Store.wait_durable s d;
      Store.drop_caches s;
      let expected =
        List.filter_map
          (fun i -> Option.map (fun seed -> (i, seed)) (Store.read_page s g ~oid:5 ~pindex:i))
          (List.init 3001 Fun.id)
      in
      let { Store.pindexes; blocks } = Store.page_map s g ~oid:5 in
      let batch = Store.read_page_blocks s blocks in
      let peeked = Array.map (Store.peek_page_block s) blocks in
      let pairs seeds = List.combine (Array.to_list pindexes) (Array.to_list seeds) in
      List.length expected = Array.length pindexes
      && pairs batch = expected
      && pairs peeked = expected
      && Store.page_map s ~base:g g ~oid:5 = { Store.pindexes = [||]; blocks = [||] }
      && Store.page_map s g ~oid:9 = { Store.pindexes = [||]; blocks = [||] })

(* A batched read delivers a latent sector as an empty block. A page
   block always holds a seed, so on a store that verifies no checksums
   the empty block still takes the verified single-block read: an
   unreadable page raises as [read_page] does, and never reads as 0. *)
let test_batch_read_unreadable_page () =
  let _, dev = mkdev () in
  let s = Store.format ~dev () in
  ignore (Store.begin_generation s ());
  Store.put_pages s ~oid:1 (Array.init 4 (fun i -> (i, Int64.of_int (100 + i))));
  let g, d = Store.commit s () in
  Store.wait_durable s d;
  let { Store.blocks; _ } = Store.page_map s g ~oid:1 in
  Devarray.inject_latent dev blocks.(2);
  Store.drop_caches s;
  let unreadable f =
    match f () with _ -> false | exception Store.Fail (Store.Unreadable_block _) -> true
  in
  check_bool "the store verifies no checksums" false (Store.protection s).Store.verify;
  check_bool "read_page raises" true (unreadable (fun () -> Store.read_page s g ~oid:1 ~pindex:2));
  check_bool "read_page_blocks raises" true (unreadable (fun () -> Store.read_page_blocks s blocks))

(* A page or blob index takes the key's low 32 bits: a larger one would
   carry into the kind and oid bits and overwrite another object's
   entries, so every call that takes one refuses it before changing
   anything. *)
let test_store_index_bound () =
  let _, dev = mkdev () in
  let s = Store.format ~dev () in
  ignore (Store.begin_generation s ());
  Store.put_record s ~oid:2 "oid two's record";
  put_page s ~oid:1 ~pindex:0xFFFF_FFFF ~seed:7L;
  let live = (Store.stats s).Store.live_blocks in
  let refused what f =
    check_bool what true (match f () with () -> false | exception Invalid_argument _ -> true)
  in
  refused "put_page at 2^32" (fun () -> put_page s ~oid:1 ~pindex:(1 lsl 32) ~seed:1L);
  refused "put_page at 2^33" (fun () -> put_page s ~oid:1 ~pindex:(1 lsl 33) ~seed:1L);
  refused "put_pages with one index at 2^33" (fun () ->
      Store.put_pages s ~oid:1 [| (3, 3L); (1 lsl 33, 4L) |]);
  refused "put_blob at 2^32" (fun () -> Store.put_blob s ~oid:1 ~index:(1 lsl 32) "blob");
  check_int "nothing allocated by the refused calls" live (Store.stats s).Store.live_blocks;
  let g, _ = Store.commit s () in
  refused "read_page at 2^32" (fun () -> ignore (Store.read_page s g ~oid:1 ~pindex:(1 lsl 32)));
  Alcotest.(check (option string)) "oid two's record is intact" (Some "oid two's record")
    (Store.read_record s g ~oid:2);
  check_int "oid one has its one page" 1 (Store.page_count s g ~oid:1);
  Alcotest.(check (option int64)) "the largest index reads back" (Some 7L)
    (Store.read_page s g ~oid:1 ~pindex:0xFFFF_FFFF)

let test_store_dedup () =
  let _, dev = mkdev () in
  let s = Store.format ~dev () in
  let g = Store.begin_generation s () in
  (* 50 distinct oids all storing identical page content. *)
  for oid = 1 to 50 do
    put_page s ~oid ~pindex:0 ~seed:42L
  done;
  ignore (Store.commit s ());
  ignore g;
  let st = Store.stats s in
  check_int "one content entry" 1 st.Store.dedup_entries;
  check_int "49 dedup hits" 49 st.Store.dedup_hits;
  (* Store-wide: a later generation hits the same content. *)
  ignore (Store.begin_generation s ());
  put_page s ~oid:99 ~pindex:7 ~seed:42L;
  ignore (Store.commit s ());
  check_int "cross-generation hit" 50 (Store.stats s).Store.dedup_hits

let test_store_gc_in_place () =
  let _, dev = mkdev () in
  let s = Store.format ~dev () in
  let gens =
    List.init 5 (fun round ->
        let g = Store.begin_generation s () in
        for i = 0 to 49 do
          put_page s ~oid:1 ~pindex:i ~seed:(Int64.of_int ((round * 1000) + i))
        done;
        ignore (Store.commit s ());
        g)
  in
  let keep = [ List.nth gens 4 ] in
  let freed = Store.gc s ~keep in
  check_bool "freed blocks in place" true (freed > 0);
  Alcotest.(check (list int)) "only kept generation remains" keep (Store.generations s);
  (* The survivor is fully readable. *)
  for i = 0 to 49 do
    match Store.read_page s (List.nth gens 4) ~oid:1 ~pindex:i with
    | Some seed -> check_bool "survivor intact" true (Int64.equal seed (Int64.of_int (4000 + i)))
    | None -> Alcotest.failf "survivor lost page %d" i
  done

let test_store_gc_all_then_reuse () =
  let _, dev = mkdev () in
  let s = Store.format ~dev () in
  ignore (Store.begin_generation s ());
  for i = 0 to 199 do
    put_page s ~oid:1 ~pindex:i ~seed:(Int64.of_int i)
  done;
  ignore (Store.commit s ());
  let live_before = (Store.stats s).Store.live_blocks in
  ignore (Store.gc s ~keep:[]);
  let live_after = (Store.stats s).Store.live_blocks in
  check_bool "near-empty after full gc" true (live_after < live_before / 10);
  (* The store keeps working after a full GC. *)
  let g = Store.begin_generation s () in
  Store.put_record s ~oid:3 "fresh start";
  ignore (Store.commit s ());
  Alcotest.(check (option string)) "reusable" (Some "fresh start")
    (Store.read_record s g ~oid:3)

let test_store_named_checkpoints () =
  let _, dev = mkdev () in
  let s = Store.format ~dev () in
  ignore (Store.begin_generation s ());
  Store.put_record s ~oid:1 "v1";
  let g1, _ = Store.commit s ~name:"before-upgrade" () in
  ignore (Store.begin_generation s ());
  Store.put_record s ~oid:1 "v2";
  ignore (Store.commit s ());
  Alcotest.(check (option int)) "found by name" (Some g1)
    (Store.find_named s "before-upgrade");
  Alcotest.(check (option string)) "named content" (Some "v1")
    (Store.read_record s g1 ~oid:1)

(* ------------------------------------------------------------------ *)
(* Store: crash recovery                                               *)
(* ------------------------------------------------------------------ *)

let test_store_recovery_roundtrip () =
  let _, dev = mkdev () in
  let s = Store.format ~dev () in
  let g1 = Store.begin_generation s () in
  Store.put_record s ~oid:5 "object five";
  for i = 0 to 30 do
    put_page s ~oid:5 ~pindex:i ~seed:(Int64.of_int (500 + i))
  done;
  let _, durable = Store.commit s ~name:"snap" () in
  Store.wait_durable s durable;
  Devarray.crash dev;
  let s' = Store.open_exn ~dev in
  Alcotest.(check (list int)) "generation survived" [ g1 ] (Store.generations s');
  Alcotest.(check (option int)) "name survived" (Some g1) (Store.find_named s' "snap");
  Alcotest.(check (option string)) "record survived" (Some "object five")
    (Store.read_record s' g1 ~oid:5);
  (match Store.read_page s' g1 ~oid:5 ~pindex:30 with
   | Some seed -> check_bool "page survived" true (Int64.equal seed 530L)
   | None -> Alcotest.fail "page lost in recovery");
  (* Refcounts rebuilt: a new commit + gc still works. *)
  ignore (Store.begin_generation s' ());
  Store.put_record s' ~oid:6 "six";
  let g2, d2 = Store.commit s' () in
  Store.wait_durable s' d2;
  ignore (Store.gc s' ~keep:[ g2 ]);
  Alcotest.(check (option string)) "post-recovery write" (Some "six")
    (Store.read_record s' g2 ~oid:6)

let test_store_crash_mid_commit_keeps_old () =
  (* A crash before the commit completes must recover the previous
     generation exactly. *)
  let _, dev = mkdev () in
  let s = Store.format ~dev () in
  let g1 = Store.begin_generation s () in
  Store.put_record s ~oid:1 "stable";
  let _, durable = Store.commit s () in
  Store.wait_durable s durable;
  (* Second generation committed but the device never reaches its
     completion time: all its async writes are in flight. *)
  ignore (Store.begin_generation s ());
  Store.put_record s ~oid:1 "torn";
  let _, _not_awaited = Store.commit s () in
  Devarray.crash dev;
  let s' = Store.open_exn ~dev in
  Alcotest.(check (list int)) "old generation recovered" [ g1 ] (Store.generations s');
  Alcotest.(check (option string)) "old content" (Some "stable")
    (Store.read_record s' g1 ~oid:1)

let test_store_striped_torn_commit_keeps_old () =
  (* Four independent queues: a crash that catches only some stripes
     durable must still recover the previous generation, because the
     superblock is ordered behind the commit barrier (max of all
     per-device completion times). *)
  let clock, dev = mkdev ~stripes:4 () in
  let s = Store.format ~dev () in
  let g1 = Store.begin_generation s () in
  for i = 0 to 63 do
    put_page s ~oid:1 ~pindex:i ~seed:(Int64.of_int (100 + i))
  done;
  let _, durable1 = Store.commit s () in
  Store.wait_durable s durable1;
  ignore (Store.begin_generation s ());
  for i = 0 to 63 do
    put_page s ~oid:1 ~pindex:i ~seed:(Int64.of_int (200 + i))
  done;
  let _, durable2 = Store.commit s () in
  (* Just before the barrier-ordered superblock lands: the stripes
     holding only data have drained, the superblock's has not. *)
  Clock.advance_to clock (Duration.sub durable2 (Duration.nanoseconds 1));
  Devarray.crash dev;
  let s' = Store.open_exn ~dev in
  Alcotest.(check (list int)) "previous generation recovered" [ g1 ]
    (Store.generations s');
  for i = 0 to 63 do
    match Store.read_page s' g1 ~oid:1 ~pindex:i with
    | Some seed ->
      check_bool "old page intact" true (Int64.equal seed (Int64.of_int (100 + i)))
    | None -> Alcotest.failf "g1 lost page %d" i
  done;
  expect_clean_fsck "fsck after torn striped commit" s'

let test_store_striped_commit_durable_at_barrier () =
  (* The flip side: at exactly durable_at the whole generation is
     recoverable. *)
  let clock, dev = mkdev ~stripes:4 () in
  let s = Store.format ~dev () in
  ignore (Store.begin_generation s ());
  for i = 0 to 63 do
    put_page s ~oid:1 ~pindex:i ~seed:(Int64.of_int (300 + i))
  done;
  let g2, durable = Store.commit s () in
  Clock.advance_to clock durable;
  Devarray.crash dev;
  let s' = Store.open_exn ~dev in
  Alcotest.(check (list int)) "new generation durable" [ g2 ] (Store.generations s');
  for i = 0 to 63 do
    match Store.read_page s' g2 ~oid:1 ~pindex:i with
    | Some seed ->
      check_bool "new page durable" true (Int64.equal seed (Int64.of_int (300 + i)))
    | None -> Alcotest.failf "g2 lost page %d" i
  done

let test_store_dedup_rebuilt_after_recovery () =
  let _, dev = mkdev () in
  let s = Store.format ~dev () in
  ignore (Store.begin_generation s ());
  put_page s ~oid:1 ~pindex:0 ~seed:7L;
  let _, durable = Store.commit s () in
  Store.wait_durable s durable;
  let s' = Store.open_exn ~dev in
  ignore (Store.begin_generation s' ());
  put_page s' ~oid:2 ~pindex:0 ~seed:7L;
  ignore (Store.commit s' ());
  check_bool "dedup hit after recovery" true ((Store.stats s').Store.dedup_hits >= 1)

let test_store_volatile_cache_commit_flushes () =
  (* On NAND (volatile cache) the commit path flushes synchronously:
     after commit returns, a crash must not lose the generation. *)
  let _, dev = mkdev ~profile:Profile.nand_ssd () in
  let s = Store.format ~dev () in
  let g = Store.begin_generation s () in
  Store.put_record s ~oid:1 "durable on nand";
  ignore (Store.commit s ());
  Devarray.crash dev;
  let s' = Store.open_exn ~dev in
  Alcotest.(check (option string)) "survived" (Some "durable on nand")
    (Store.read_record s' g ~oid:1)

(* The commit after an abort writes exactly the tree nodes a store that
   never saw the aborted generation writes: none of the aborted working
   tree's nodes reaches the device. *)
let test_store_abort_writes_no_aborted_nodes () =
  let run ~abort =
    let _, dev = mkdev () in
    let s = Store.format ~dev () in
    ignore (Store.begin_generation s ());
    Store.put_pages s ~oid:1 (Array.init 2000 (fun i -> (i, Int64.of_int (i + 1))));
    ignore (Store.commit s ());
    Store.wait_all_durable s;
    if abort then begin
      ignore (Store.begin_generation s ());
      Store.put_pages s ~oid:2 (Array.init 3000 (fun i -> (i, Int64.of_int (-i - 1))));
      Store.put_pages s ~oid:1 (Array.init 100 (fun i -> (i * 20, 9L)));
      Store.abort_generation s
    end;
    let g = Store.begin_generation s () in
    Store.put_pages s ~oid:1 (Array.init 50 (fun i -> (i * 40, 7L)));
    let before = (Devarray.stats dev).Blockdev.blocks_written in
    ignore (Store.commit s ());
    Store.wait_all_durable s;
    let meta =
      match Store.gen_provenance s g with Some p -> p.Store.pv_meta_blocks | None -> -1
    in
    (s, g, meta, (Devarray.stats dev).Blockdev.blocks_written - before)
  in
  let s, g, meta, written = run ~abort:true in
  let _, _, meta', written' = run ~abort:false in
  check_int "same tree nodes flushed" meta' meta;
  check_int "same blocks written" written' written;
  check_bool "aborted object absent" true (Store.read_page s g ~oid:2 ~pindex:0 = None);
  check_bool "aborted page version absent" true
    (Store.read_page s g ~oid:1 ~pindex:20 = Some 21L);
  expect_clean_fsck "after abort and commit" s

let test_store_cold_read_charges_device () =
  let clock, dev = mkdev () in
  let s = Store.format ~dev () in
  let g = Store.begin_generation s () in
  for i = 0 to 200 do
    put_page s ~oid:1 ~pindex:i ~seed:(Int64.of_int i)
  done;
  Store.put_record s ~oid:1 "meta";
  let _, durable = Store.commit s () in
  Store.wait_durable s durable;
  Store.drop_caches s;
  Devarray.reset_stats dev;
  let before = Clock.now clock in
  ignore (Store.read_record s g ~oid:1);
  ignore (Store.read_page s g ~oid:1 ~pindex:100);
  let elapsed = Duration.sub (Clock.now clock) before in
  check_bool "cold reads hit device" true ((Devarray.stats dev).Blockdev.reads > 0);
  check_bool "cold reads cost time" true
    Duration.(elapsed >= Profile.optane_900p.Profile.read_latency)

let prop_store_generations_independent =
  QCheck.Test.make ~name:"every generation reads back its own version" ~count:25
    QCheck.(list_of_size Gen.(int_range 1 6) (list_of_size Gen.(int_range 1 30) (pair (int_bound 40) small_int)))
    (fun rounds ->
      let _, dev = mkdev () in
      let s = Store.format ~dev () in
      let model = Hashtbl.create 64 in
      let committed =
        List.map
          (fun writes ->
            let g = Store.begin_generation s () in
            List.iter
              (fun (pindex, v) ->
                Hashtbl.replace model (g, pindex) (Int64.of_int v);
                put_page s ~oid:1 ~pindex ~seed:(Int64.of_int v))
              writes;
            ignore (Store.commit s ());
            g)
          rounds
      in
      (* Later generations inherit earlier pages unless overwritten. *)
      let expected g pindex =
        let rec search gen =
          if gen < 1 then None
          else if not (List.mem gen committed) then search (gen - 1)
          else
            match Hashtbl.find_opt model (gen, pindex) with
            | Some v -> Some v
            | None -> search (gen - 1)
        in
        search g
      in
      List.for_all
        (fun g ->
          List.for_all
            (fun pindex -> Store.read_page s g ~oid:1 ~pindex = expected g pindex)
            (List.init 41 Fun.id))
        committed)


(* ------------------------------------------------------------------ *)
(* fsck + property over random store histories                         *)
(* ------------------------------------------------------------------ *)

let test_fsck_clean_store () =
  let _, dev = mkdev () in
  let s = Store.format ~dev () in
  ignore (Store.begin_generation s ());
  Store.put_record s ~oid:1 "record";
  for i = 0 to 50 do
    put_page s ~oid:1 ~pindex:i ~seed:(Int64.of_int i)
  done;
  let _, d = Store.commit s () in
  Store.wait_durable s d;
  expect_clean_fsck "fsck" s

type store_op =
  | S_commit of (int * int64) list  (* pages for oid 1 *)
  | S_record of string
  | S_gc_keep_last of int
  | S_crash_recover

let store_op_gen =
  let open QCheck.Gen in
  frequency
    [
      (5, map (fun ps -> S_commit ps)
           (list_size (int_range 1 25) (pair (int_bound 40) int64)));
      (2, map (fun s -> S_record s) (string_size ~gen:printable (int_range 0 6000)));
      (2, map (fun n -> S_gc_keep_last (1 + (n mod 4))) small_nat);
      (2, return S_crash_recover);
    ]

let pp_store_op = function
  | S_commit ps -> Printf.sprintf "commit(%d pages)" (List.length ps)
  | S_record s -> Printf.sprintf "record(%d bytes)" (String.length s)
  | S_gc_keep_last n -> Printf.sprintf "gc(keep %d)" n
  | S_crash_recover -> "crash+recover"

let prop_store_history_invariants =
  QCheck.Test.make ~name:"random store histories keep fsck clean and data readable"
    ~count:30
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_store_op ops))
       QCheck.Gen.(list_size (int_range 1 25) store_op_gen))
    (fun ops ->
      let _, dev = mkdev () in
      let store = ref (Store.format ~dev ()) in
      (* The model: for every committed generation, the latest value of
         each page/record at commit time. *)
      let committed : (int, (int * int64) list * string option) Hashtbl.t =
        Hashtbl.create 16
      in
      let cur_pages : (int, int64) Hashtbl.t = Hashtbl.create 16 in
      let cur_record = ref None in
      let ok = ref true in
      let fail_with msg = ok := false; QCheck.Test.fail_report msg in
      List.iter
        (fun op ->
          if !ok then
            match op with
            | S_commit pages ->
              ignore (Store.begin_generation !store ());
              List.iter
                (fun (pindex, seed) ->
                  Hashtbl.replace cur_pages pindex seed;
                  put_page !store ~oid:1 ~pindex ~seed)
                pages;
              let g, d = Store.commit !store () in
              Store.wait_durable !store d;
              Hashtbl.replace committed g
                ( Hashtbl.fold (fun k v acc -> (k, v) :: acc) cur_pages [],
                  !cur_record )
            | S_record data ->
              ignore (Store.begin_generation !store ());
              cur_record := Some data;
              Store.put_record !store ~oid:7 data;
              let g, d = Store.commit !store () in
              Store.wait_durable !store d;
              Hashtbl.replace committed g
                ( Hashtbl.fold (fun k v acc -> (k, v) :: acc) cur_pages [],
                  !cur_record )
            | S_gc_keep_last n ->
              let gens = Store.generations !store in
              let keep =
                List.filteri (fun i _ -> i >= List.length gens - n) gens
              in
              ignore (Store.gc !store ~keep);
              Hashtbl.iter
                (fun g _ -> if not (List.mem g keep) then Hashtbl.remove committed g)
                (Hashtbl.copy committed)
            | S_crash_recover ->
              Devarray.crash dev;
              store := Store.open_exn ~dev)
        ops;
      if !ok then begin
        (let r = Store.fsck !store in
         if not (Store.fsck_ok r) then
           fail_with ("fsck: " ^ String.concat "; " (fsck_problems r)));
        (* Every surviving generation reads back its model state. *)
        Hashtbl.iter
          (fun g (pages, record) ->
            if List.mem g (Store.generations !store) then begin
              List.iter
                (fun (pindex, seed) ->
                  if Store.read_page !store g ~oid:1 ~pindex <> Some seed then
                    fail_with
                      (Printf.sprintf "gen %d page %d diverged" g pindex))
                pages;
              match record with
              | Some data ->
                if Store.read_record !store g ~oid:7 <> Some data then
                  fail_with (Printf.sprintf "gen %d record diverged" g)
              | None -> ()
            end)
          committed
      end;
      !ok)

(* ------------------------------------------------------------------ *)
(* Media faults and self-healing                                       *)
(* ------------------------------------------------------------------ *)

(* Locate the physical home of a distinctive payload by inspecting the
   device under the store (ascending allocation puts the primary copy
   before its mirror). *)
let find_block dev ~seed =
  let n = Devarray.used_blocks dev in
  let rec go b =
    if b >= n then Alcotest.failf "seed %Ld not found on device" seed
    else if Devarray.peek dev b = Blockdev.Seed seed then b
    else go (b + 1)
  in
  go 2

let test_store_open_empty_device () =
  let _, dev = mkdev () in
  (match Store.open_ ~dev with
   | Error Store.No_superblock -> ()
   | Error e -> Alcotest.failf "wrong error: %s" (Store.describe_error e)
   | Ok _ -> Alcotest.fail "opened a device that was never formatted")

let test_store_out_of_space_degrades () =
  let clock = Clock.create () in
  let dev =
    Devarray.create ~capacity_blocks:48 ~clock ~profile:Profile.optane_900p "tiny"
  in
  let s = Store.format ~dev () in
  let g1 = Store.begin_generation s () in
  Store.put_record s ~oid:1 "keep me";
  put_page s ~oid:1 ~pindex:0 ~seed:42L;
  let _, d = Store.commit s () in
  Store.wait_durable s d;
  (* A generation too big for the device must fail *typed* and leave
     the store serving its last good checkpoint. *)
  ignore (Store.begin_generation s ());
  (match
     (for i = 0 to 199 do
        put_page s ~oid:2 ~pindex:i ~seed:(Int64.of_int (1000 + i))
      done;
      Store.commit_result s ())
   with
   | Ok _ -> Alcotest.fail "oversized generation committed"
   | Error Store.Out_of_space -> ()
   | Error e -> Alcotest.failf "wrong error: %s" (Store.describe_error e)
   | exception Alloc.Out_of_space -> Store.abort_generation s);
  Alcotest.(check (list int)) "old generation intact" [ g1 ] (Store.generations s);
  Alcotest.(check (option string)) "still serving" (Some "keep me")
    (Store.read_record s g1 ~oid:1);
  (* The aborted generation's blocks were reclaimed: a small commit
     fits again. *)
  ignore (Store.begin_generation s ());
  Store.put_record s ~oid:3 "after the squeeze";
  let g3, d3 = Store.commit s () in
  Store.wait_durable s d3;
  Alcotest.(check (option string)) "space recovered" (Some "after the squeeze")
    (Store.read_record s g3 ~oid:3);
  expect_clean_fsck "fsck after out-of-space" s

let full_protection = { Store.verify = true; mirror = true }

let test_store_corruption_healed_from_mirror () =
  let _, dev = mkdev () in
  let s = Store.format ~protection:full_protection ~dev () in
  ignore (Store.begin_generation s ());
  let g, d =
    put_page s ~oid:1 ~pindex:0 ~seed:777_777L;
    put_page s ~oid:1 ~pindex:1 ~seed:888_888L;
    Store.commit s ()
  in
  Store.wait_durable s d;
  (* Bit rot on the primary copy, behind the store's back. *)
  let victim = find_block dev ~seed:777_777L in
  Devarray.write dev victim (Blockdev.Seed 666L);
  Alcotest.(check (option int64)) "read heals through the mirror"
    (Some 777_777L)
    (Store.read_page s g ~oid:1 ~pindex:0);
  let io = Store.io_stats s in
  check_bool "mismatch detected" true (io.Store.checksum_failures >= 1);
  check_bool "healed from mirror" true (io.Store.repaired_from_mirror >= 1);
  check_int "nothing lost" 0 io.Store.lost_blocks;
  (* The heal rewrote the primary in place. *)
  check_bool "primary repaired on device" true
    (Devarray.peek dev victim = Blockdev.Seed 777_777L)

let test_store_latent_healed_by_scrub () =
  let _, dev = mkdev () in
  let s = Store.format ~protection:full_protection ~dev () in
  ignore (Store.begin_generation s ());
  put_page s ~oid:1 ~pindex:0 ~seed:123_123L;
  Store.put_record s ~oid:1 "metadata";
  let g, d = Store.commit s () in
  Store.wait_durable s d;
  let victim = find_block dev ~seed:123_123L in
  Devarray.inject_latent dev victim;
  let r = Store.fsck ~scrub:true s in
  check_bool "scrub is clean after healing" true (Store.fsck_ok r);
  check_bool "the latent block was healed" true
    (List.exists (fun (b, _) -> b = victim) r.Store.healed);
  check_bool "scrub read the store" true (r.Store.scanned_blocks > 0);
  (* Healing rewrote the sector, clearing the latent error for good. *)
  Alcotest.(check (option int64)) "page readable after scrub" (Some 123_123L)
    (Store.read_page s g ~oid:1 ~pindex:0);
  Alcotest.(check (option string)) "record survived" (Some "metadata")
    (Store.read_record s g ~oid:1)

let test_store_unrecoverable_loss_drops_generation () =
  let _, dev = mkdev () in
  (* Checksums but no mirror and no dedup: nothing to repair from. *)
  let s =
    Store.format ~dedup:false
      ~protection:{ Store.verify = true; mirror = false }
      ~dev ()
  in
  ignore (Store.begin_generation s ());
  Store.put_record s ~oid:1 "gen one survives";
  put_page s ~oid:1 ~pindex:0 ~seed:111L;
  let g1, d1 = Store.commit s () in
  Store.wait_durable s d1;
  ignore (Store.begin_generation s ());
  put_page s ~oid:2 ~pindex:0 ~seed:222_222L;
  let g2, d2 = Store.commit s () in
  Store.wait_durable s d2;
  let victim = find_block dev ~seed:222_222L in
  Devarray.inject_latent dev victim;
  let r = Store.fsck ~scrub:true s in
  check_bool "loss reported" true (not (Store.fsck_ok r));
  check_bool "the broken generation is the one quarantined" true
    (List.exists (fun (g, _) -> g = g2) r.Store.lost);
  Alcotest.(check (list int)) "store dropped it cleanly" [ g1 ]
    (Store.generations s);
  Alcotest.(check (option string)) "older generation still whole"
    (Some "gen one survives")
    (Store.read_record s g1 ~oid:1);
  (* With the casualty quarantined, the store is consistent again. *)
  expect_clean_fsck "fsck after quarantine" s

let test_store_transient_reads_retry () =
  let clock = Clock.create () in
  let dev =
    Devarray.create
      ~faults:(Fault.plan ~seed:11L ~transient_read:0.2 ())
      ~clock ~profile:Profile.optane_900p "flaky"
  in
  let s = Store.format ~dev () in
  check_bool "protection auto-enabled under faults" true
    (let p = Store.protection s in
     p.Store.verify && p.Store.mirror);
  ignore (Store.begin_generation s ());
  for i = 0 to 63 do
    put_page s ~oid:1 ~pindex:i ~seed:(Int64.of_int (5000 + i))
  done;
  let g, d = Store.commit s () in
  Store.wait_durable s d;
  Store.drop_caches s;
  for i = 0 to 63 do
    Alcotest.(check (option int64))
      (Printf.sprintf "page %d correct despite transient errors" i)
      (Some (Int64.of_int (5000 + i)))
      (Store.read_page s g ~oid:1 ~pindex:i)
  done;
  let io = Store.io_stats s in
  check_bool "retries were needed and charged" true (io.Store.read_retries > 0);
  check_int "no data lost" 0 io.Store.lost_blocks

let test_store_fault_storm_crash_recover_bitexact () =
  (* The ISSUE acceptance scenario: 1e-3 transient reads, at least one
     latent sector per generation, then power failure. Reopen + scrub
     must hand back every committed generation bit-exact. *)
  let clock = Clock.create () in
  let dev =
    Devarray.create ~stripes:2
      ~faults:(Fault.plan ~seed:2024L ~transient_read:1e-3 ())
      ~clock ~profile:Profile.optane_900p "nvme"
  in
  let s = Store.format ~dev () in
  let model = Hashtbl.create 8 in
  for gnum = 0 to 5 do
    ignore (Store.begin_generation s ());
    let pages =
      List.init 64 (fun i -> (i, Int64.of_int ((gnum * 1000) + i)))
    in
    List.iter (fun (i, seed) -> put_page s ~oid:1 ~pindex:i ~seed) pages;
    Store.put_record s ~oid:7 (Printf.sprintf "generation %d manifest" gnum);
    let g, d = Store.commit s () in
    Store.wait_durable s d;
    Hashtbl.replace model g (pages, Printf.sprintf "generation %d manifest" gnum);
    (* >= 1 latent sector per generation, away from the superblocks. *)
    let used = Devarray.used_blocks dev in
    Devarray.inject_latent dev (2 + ((gnum * 17) mod (used - 2)))
  done;
  Devarray.crash dev;
  let s' = Store.open_exn ~dev in
  let r = Store.fsck ~scrub:true s' in
  check_bool "scrub healed everything" true (Store.fsck_ok r);
  Hashtbl.iter
    (fun g (pages, record) ->
      check_bool (Printf.sprintf "generation %d present" g) true
        (List.mem g (Store.generations s'));
      List.iter
        (fun (pindex, seed) ->
          Alcotest.(check (option int64))
            (Printf.sprintf "gen %d page %d bit-exact" g pindex)
            (Some seed)
            (Store.read_page s' g ~oid:1 ~pindex))
        pages;
      Alcotest.(check (option string))
        (Printf.sprintf "gen %d record bit-exact" g)
        (Some record)
        (Store.read_record s' g ~oid:7))
    model;
  check_int "all six generations" 6 (List.length (Store.generations s'))

(* ------------------------------------------------------------------ *)
(* Reachability: golden walk outputs and damaged trees                 *)
(* ------------------------------------------------------------------ *)

let page_key ~oid ~pindex =
  Int64.(add (mul (of_int oid) 0x4_0000_0000L) (add 0x2_0000_0000L (of_int pindex)))

(* The leaf node on the device that maps [key] to a block holding
   [seed], i.e. that leaf's copy in the generation which wrote [seed].
   Found with [peek], so the search charges no simulated time. *)
let find_leaf dev ~key ~seed =
  let module S = Serial in
  let maps_key s =
    let r = S.reader s in
    S.r_u8 r = 0
    &&
    let n = S.r_int r in
    let rec entry i =
      i < n
      &&
      let k = S.r_int64 r in
      if S.r_u8 r = 1 then
        let b = S.r_int r in
        (k = key && Devarray.peek dev b = Blockdev.Seed seed) || entry (i + 1)
      else (ignore (S.r_int64 r); entry (i + 1))
    in
    n > 0 && n <= 256 && entry 0
  in
  let last = Devarray.used_blocks dev + 4 in
  let rec go b =
    if b >= last then Alcotest.failf "no leaf maps %Ld to seed %Ld" key seed
    else
      match Devarray.peek dev b with
      | Blockdev.Data s when (try maps_key s with S.Corrupt _ -> false) -> b
      | _ -> go (b + 1)
  in
  go 4

(* Generation 1: a 700-page object whose seeds repeat, a 9,000-byte
   record and a blob. Generation 2, named, rewrites pages 0-19.
   Generation 3 adds a 300-page object that dedups against the first. *)
let walk_fixture protection =
  let clock, dev = mkdev ~stripes:2 () in
  let s = Store.format ~protection ~dev () in
  let commit ?name () =
    let _, d = Store.commit s ?name () in
    Store.wait_durable s d
  in
  ignore (Store.begin_generation s ());
  Store.put_pages s ~oid:1 (Array.init 700 (fun i -> (i, Int64.of_int (1 + (i mod 97)))));
  Store.put_record s ~oid:1 (String.init 9_000 (fun i -> Char.chr (97 + (i mod 26))));
  Store.put_blob s ~oid:1 ~index:0 "walk fixture blob";
  commit ();
  ignore (Store.begin_generation s ());
  Store.put_pages s ~oid:1 (Array.init 20 (fun i -> (i, Int64.of_int (5_000 + i))));
  commit ~name:"rewrite" ();
  ignore (Store.begin_generation s ());
  Store.put_pages s ~oid:2 (Array.init 300 (fun i -> (i, Int64.of_int (1 + (i mod 150)))));
  commit ();
  (clock, dev, s)

let rewritten_leaf dev = find_leaf dev ~key:(page_key ~oid:1 ~pindex:0) ~seed:5_000L

let print_fsck buf (r : Store.fsck_report) =
  let origin = function Store.Mirror -> "mirror" | Store.Dedup_copy -> "dedup" in
  Printf.bprintf buf "fsck problems [%s] healed [%s] lost [%s] scanned %d\n"
    (String.concat "; " r.Store.problems)
    (String.concat "; "
       (List.map (fun (b, o) -> Printf.sprintf "%d %s" b (origin o)) r.Store.healed))
    (String.concat "; "
       (List.map (fun (g, why) -> Printf.sprintf "%d %s" g why) r.Store.lost))
    r.Store.scanned_blocks

let print_reports buf s =
  List.iter
    (fun g ->
      match Store.gen_report s g with
      | None -> Printf.bprintf buf "gen %d: no report\n" g
      | Some r ->
        Printf.bprintf buf
          "gen %d: meta %d data %d mirror %d records %d pages %d blobs %d \
           record bytes %d logical %d exclusive %d shared %d\n"
          r.Store.r_gen r.Store.r_meta_blocks r.Store.r_data_blocks
          r.Store.r_mirror_blocks r.Store.r_record_entries r.Store.r_page_entries
          r.Store.r_blob_entries r.Store.r_record_bytes r.Store.r_logical_bytes
          r.Store.r_exclusive_blocks r.Store.r_shared_blocks)
    (Store.generations s);
  let x = Store.crosscheck s in
  Printf.bprintf buf "crosscheck reachable %d live %d within %b\n"
    x.Store.x_reachable_blocks x.Store.x_live_blocks x.Store.x_within_1pct;
  print_fsck buf (Store.fsck s)

let print_gens buf what clock before s =
  Printf.bprintf buf "%s %d ns gens [%s]\n" what
    (Duration.to_ns (Duration.sub (Clock.now clock) before))
    (String.concat " " (List.map string_of_int (Store.generations s)))

(* Pins everything the reachability walk produces: the provenance
   reports, crosscheck and fsck of a live store; recovery's simulated
   time, generations and rebuilt counts on reopen; a scrub over one
   garbage leaf; and recovery over that leaf, which quarantines
   generations 2 and 3 in ascending order. Each protection mode takes
   another path: the leaf's generations are quarantined (none, verify)
   or the leaf is healed from its mirror. *)
let test_walk_golden () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (label, protection) ->
      Printf.bprintf buf "== %s\n" label;
      let clock, dev, s = walk_fixture protection in
      print_reports buf s;
      let before = Clock.now clock in
      let s = Store.open_exn ~dev in
      print_gens buf "recovery" clock before s;
      let st = Store.stats s in
      Printf.bprintf buf "live %d dedup %d/%d/%d/%d committed %d\n" st.Store.live_blocks
        st.Store.dedup_entries st.Store.dedup_hits st.Store.dedup_misses
        st.Store.dedup_bytes_saved st.Store.committed_generations;
      print_reports buf s;
      Devarray.write dev (rewritten_leaf dev) (Blockdev.Data "garbage");
      Store.drop_caches s;
      let before = Clock.now clock in
      print_fsck buf (Store.fsck ~scrub:true s);
      print_gens buf "scrub" clock before s;
      let io = Store.io_stats s in
      Printf.bprintf buf "io %d %d %d %d %d\n" io.Store.read_retries
        io.Store.checksum_failures io.Store.repaired_from_mirror
        io.Store.repaired_from_dedup io.Store.lost_blocks;
      let clock, dev, _ = walk_fixture protection in
      Devarray.write dev (rewritten_leaf dev) (Blockdev.Data "garbage");
      let before = Clock.now clock in
      let s = Store.open_exn ~dev in
      print_gens buf "damaged recovery" clock before s;
      print_fsck buf (Store.fsck s))
    [ ("none", { Store.verify = false; mirror = false });
      ("verify", { Store.verify = true; mirror = false });
      ("verify+mirror", full_protection) ];
  let expected = "6d6042d9df931b917bd7a0e67d1f4d33" in
  let digest = Digest.to_hex (Digest.string (Buffer.contents buf)) in
  if digest <> expected then print_string (Buffer.contents buf);
  Alcotest.(check string) "walk outputs digest" expected digest

(* fsck reports a tree node it cannot read instead of raising, whether
   the node fails to decode (no protection) or fails its checksum with
   no copy to repair from. *)
let test_fsck_reports_damaged_tree () =
  List.iter
    (fun protection ->
      let _, dev, s = walk_fixture protection in
      let leaf = rewritten_leaf dev in
      Devarray.write dev leaf (Blockdev.Data "garbage");
      Store.drop_caches s;
      let r = Store.fsck s in
      check_bool "damage reported" false (Store.fsck_ok r);
      let node = Printf.sprintf "node %d" leaf in
      check_bool (node ^ " named") true
        (List.exists
           (fun p -> String.length p >= String.length node
                     && String.sub p 0 (String.length node) = node)
           r.Store.problems))
    [ { Store.verify = false; mirror = false }; { Store.verify = true; mirror = false } ]

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "objstore"
    [
      ( "alloc",
        [
          Alcotest.test_case "alloc/free/reuse" `Quick test_alloc_reuse;
          Alcotest.test_case "refcounting + hooks" `Quick test_alloc_refcounting;
          Alcotest.test_case "refcount limit" `Slow test_alloc_refs_limit;
          Alcotest.test_case "capacity" `Quick test_alloc_capacity;
          qt prop_alloc_matches_reference;
        ] );
      ( "btree",
        [
          Alcotest.test_case "insert/find at scale" `Quick test_btree_insert_find;
          Alcotest.test_case "replace frees old pointer" `Quick test_btree_replace;
          Alcotest.test_case "snapshot isolation" `Quick test_btree_snapshot_isolation;
          Alcotest.test_case "release frees everything" `Quick test_btree_release_frees_all;
          Alcotest.test_case "release preserves shared snapshot" `Quick
            test_btree_release_preserves_shared;
          Alcotest.test_case "persist + cold reread" `Quick test_btree_persist_and_reread;
          Alcotest.test_case "fold_range" `Quick test_btree_fold_range;
          Alcotest.test_case "freed dirty node is not written" `Quick
            test_btree_freed_dirty_not_written;
          Alcotest.test_case "reused block is written once" `Quick
            test_btree_reused_block_written_once;
          Alcotest.test_case "flush writes in ascending block order" `Quick
            test_btree_flush_ascending;
          Alcotest.test_case "cache and dirty counts" `Quick test_btree_cache_counts;
          Alcotest.test_case "hot paths allocate nothing" `Quick
            test_hot_paths_allocate_nothing;
          Alcotest.test_case "restore page path allocation" `Quick
            test_restore_page_path_allocation;
          Alcotest.test_case "per-page store paths allocation" `Quick
            test_store_per_page_allocation;
          Alcotest.test_case "epoch allocation per copied leaf" `Quick
            test_btree_epoch_allocation;
          qt prop_btree_matches_hashtable;
          qt prop_btree_fold_range_matches_model;
          Alcotest.test_case "golden format and allocation order" `Quick
            test_btree_golden_format;
          Alcotest.test_case "flat nodes change no allocation or write" `Quick
            test_btree_descent_golden;
          Alcotest.test_case "insert allocation is fill-independent" `Quick
            test_btree_insert_alloc;
          Alcotest.test_case "decoded node count bounds" `Quick test_btree_node_count_bounds;
        ] );
      ( "store",
        [
          Alcotest.test_case "record roundtrip" `Quick test_store_record_roundtrip;
          Alcotest.test_case "record shrink across gens" `Quick test_store_record_shrink;
          Alcotest.test_case "incremental pages" `Quick test_store_pages_and_incremental;
          Alcotest.test_case "content dedup" `Quick test_store_dedup;
          Alcotest.test_case "index past 32 bits is refused" `Quick test_store_index_bound;
          Alcotest.test_case "in-place gc" `Quick test_store_gc_in_place;
          Alcotest.test_case "full gc then reuse" `Quick test_store_gc_all_then_reuse;
          Alcotest.test_case "named checkpoints" `Quick test_store_named_checkpoints;
          qt prop_store_generations_independent;
          qt prop_page_map_matches_read_page;
          Alcotest.test_case "a batched read never returns 0 for an unreadable page" `Quick
            test_batch_read_unreadable_page;
        ] );
      ( "fsck",
        [
          Alcotest.test_case "clean store" `Quick test_fsck_clean_store;
          qt prop_store_history_invariants;
          Alcotest.test_case "golden walk outputs" `Quick test_walk_golden;
          Alcotest.test_case "damaged tree is reported" `Quick
            test_fsck_reports_damaged_tree;
        ] );
      ( "crash-recovery",
        [
          Alcotest.test_case "recovery roundtrip" `Quick test_store_recovery_roundtrip;
          Alcotest.test_case "torn commit keeps old generation" `Quick
            test_store_crash_mid_commit_keeps_old;
          Alcotest.test_case "striped torn commit keeps old generation" `Quick
            test_store_striped_torn_commit_keeps_old;
          Alcotest.test_case "striped commit durable at barrier" `Quick
            test_store_striped_commit_durable_at_barrier;
          Alcotest.test_case "dedup rebuilt" `Quick test_store_dedup_rebuilt_after_recovery;
          Alcotest.test_case "volatile cache flushes synchronously" `Quick
            test_store_volatile_cache_commit_flushes;
          Alcotest.test_case "cold reads charge the device" `Quick
            test_store_cold_read_charges_device;
          Alcotest.test_case "abort writes none of the aborted nodes" `Quick
            test_store_abort_writes_no_aborted_nodes;
        ] );
      ( "self-healing",
        [
          Alcotest.test_case "open empty device is typed" `Quick
            test_store_open_empty_device;
          Alcotest.test_case "out of space degrades, not crashes" `Quick
            test_store_out_of_space_degrades;
          Alcotest.test_case "corruption healed from mirror" `Quick
            test_store_corruption_healed_from_mirror;
          Alcotest.test_case "latent sector healed by scrub" `Quick
            test_store_latent_healed_by_scrub;
          Alcotest.test_case "unrecoverable loss drops generation" `Quick
            test_store_unrecoverable_loss_drops_generation;
          Alcotest.test_case "transient reads retried" `Quick
            test_store_transient_reads_retry;
          Alcotest.test_case "fault storm + crash recovers bit-exact" `Quick
            test_store_fault_storm_crash_recover_bitexact;
        ] );
    ]
