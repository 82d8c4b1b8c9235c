open Aurora_simtime
open Aurora_device
open Aurora_posix

type value = Imm of int64 | Ptr of int

(* Maximum entries per node, sized so an encoded node fits one 4 KiB
   block: leaf entries are 17 bytes, internal entries 16. *)
let max_entries = 200

(* A node is parallel arrays plus a live count [n]: keys.(0 .. n-1)
   ascending, with vals.(i) beside each key in a leaf, or n+1 children
   around the n separator keys of an internal node (child i covers
   [keys.(i-1), keys.(i))). Slots at and past [n] are stale. A node
   the current epoch owns has room for one entry past [max_entries], so
   an insert lands in place and then splits; a decoded node is
   exact-size. Only owned nodes are ever mutated. *)
type node =
  | Leaf of { mutable n : int; keys : int64 array; vals : value array }
  | Internal of { mutable n : int; keys : int64 array; children : int array }

type cached = { block : int; node : node; epoch : int; mutable dirty : bool }

(* The filler of every empty cache slot. *)
let absent = { block = -1; node = Leaf { n = 0; keys = [||]; vals = [||] }; epoch = -1;
               dirty = false }

type t = {
  dev : Devarray.t;
  alloc : Alloc.t;
  cache : cached Blockvec.t; (* by block; [absent] where not cached *)
  mutable dirty_nodes : cached list;
  (* Every node marked dirty since the last flush, newest first. A node
     freed or evicted since then no longer fills its cache slot and is
     skipped. *)
  mutable current_epoch : int;
  mutable reader : (int -> Blockdev.content) option;
}

let create ~dev ~alloc =
  let t = { dev; alloc; cache = Blockvec.create absent; dirty_nodes = []; current_epoch = 0;
            reader = None } in
  (* Freed blocks must leave the cache: a freed block index can be
     reallocated with new content. *)
  Alloc.add_on_free alloc (fun b ->
      if Blockvec.get t.cache b != absent then Blockvec.set t.cache b absent);
  t

let set_reader t f = t.reader <- Some f

let begin_epoch t n = t.current_epoch <- n

(* Filler for stale value slots. *)
let no_value = Imm 0L

(* --- node encoding ------------------------------------------------- *)

let encode_node node =
  let w = Serial.writer () in
  (match node with
   | Leaf l ->
     Serial.w_u8 w 0;
     Serial.w_int w l.n;
     for i = 0 to l.n - 1 do
       Serial.w_int64 w l.keys.(i);
       match l.vals.(i) with
       | Imm x ->
         Serial.w_u8 w 0;
         Serial.w_int64 w x
       | Ptr b ->
         Serial.w_u8 w 1;
         Serial.w_int w b
     done
   | Internal nd ->
     Serial.w_u8 w 1;
     Serial.w_int w nd.n;
     for i = 0 to nd.n - 1 do
       Serial.w_int64 w nd.keys.(i)
     done;
     Serial.w_int w (nd.n + 1);
     for i = 0 to nd.n do
       Serial.w_int w nd.children.(i)
     done);
  let s = Serial.contents w in
  assert (String.length s <= Blockdev.block_size);
  s

(* Counts are checked before anything is allocated from them. *)
let r_count r what =
  let n = Serial.r_int r in
  if n < 0 || n > max_entries + 1 then
    raise (Serial.Corrupt (Printf.sprintf "Btree: %s count %d out of range" what n));
  n

let decode_node data =
  let r = Serial.reader data in
  match Serial.r_u8 r with
  | 0 ->
    let n = r_count r "leaf entry" in
    let keys = Array.make n 0L and vals = Array.make n no_value in
    for i = 0 to n - 1 do
      keys.(i) <- Serial.r_int64 r;
      vals.(i) <-
        (match Serial.r_u8 r with
         | 0 -> Imm (Serial.r_int64 r)
         | 1 -> Ptr (Serial.r_int r)
         | tag -> raise (Serial.Corrupt (Printf.sprintf "Btree: bad value tag %d" tag)))
    done;
    Leaf { n; keys; vals }
  | 1 ->
    let n = r_count r "internal key" in
    let keys = Array.init n (fun _ -> Serial.r_int64 r) in
    if Serial.r_int r <> n + 1 then
      raise (Serial.Corrupt "Btree: child/key count mismatch");
    let children = Array.init (n + 1) (fun _ -> Serial.r_int r) in
    Internal { n; keys; children }
  | tag -> raise (Serial.Corrupt (Printf.sprintf "Btree: bad node tag %d" tag))

(* --- cache --------------------------------------------------------- *)

let read_cached t block =
  let c = Blockvec.get t.cache block in
  if c != absent then c
  else begin
    let raw =
      match t.reader with
      | Some f -> f block
      | None -> Devarray.read t.dev block
    in
    let node =
      match raw with
      | Blockdev.Data s -> decode_node s
      | Blockdev.Seed _ | Blockdev.Zero ->
        raise (Serial.Corrupt (Printf.sprintf "Btree: block %d is not a node" block))
    in
    let c = { block; node; epoch = -1; dirty = false } in
    Blockvec.set t.cache block c;
    c
  end

let new_node t node =
  let block = Alloc.alloc t.alloc in
  let c = { block; node; epoch = t.current_epoch; dirty = true } in
  Blockvec.set t.cache block c;
  t.dirty_nodes <- c :: t.dirty_nodes;
  c

let mark_dirty t c =
  if not c.dirty then begin
    c.dirty <- true;
    t.dirty_nodes <- c :: t.dirty_nodes
  end

(* An epoch-owned node holding [count] entries copied from [keys] and
   [vals] (or children) starting at [pos], with room for one more entry
   than either [max_entries] or [count] (a decoded node can be
   oversized). *)
let capacity count = max (max_entries + 1) (count + 1)

let owned_leaf keys vals pos count =
  let cap = capacity count in
  let k = Array.make cap 0L and v = Array.make cap no_value in
  Array.blit keys pos k 0 count;
  Array.blit vals pos v 0 count;
  Leaf { n = count; keys = k; vals = v }

let owned_internal keys children pos count =
  let cap = capacity count in
  let k = Array.make cap 0L and c = Array.make (cap + 1) 0 in
  Array.blit keys pos k 0 count;
  Array.blit children pos c 0 (count + 1);
  Internal { n = count; keys = k; children = c }

let empty_root t = (new_node t (owned_leaf [||] [||] 0 0)).block

(* Reference bookkeeping: the tree holds one reference per edge
   (parent -> child) and per Ptr value stored in a leaf. Copying a
   node duplicates all its outgoing references. *)
let incref_contents t = function
  | Leaf l ->
    for i = 0 to l.n - 1 do
      match l.vals.(i) with Ptr b -> Alloc.incref t.alloc b | Imm _ -> ()
    done
  | Internal nd ->
    for i = 0 to nd.n do
      Alloc.incref t.alloc nd.children.(i)
    done

(* Make the node at [block] writable in the current epoch; returns the
   cache entry to use (either the same block, or a private copy). The
   caller owns fixing up the parent edge (and decreffing [block] if the
   edge moves). The copy is the only one this node gets this epoch: it
   is owned from then on and mutated in place. *)
let cow t block =
  let c = read_cached t block in
  if c.epoch = t.current_epoch then c
  else begin
    incref_contents t c.node;
    new_node t
      (match c.node with
       | Leaf l -> owned_leaf l.keys l.vals 0 l.n
       | Internal nd -> owned_internal nd.keys nd.children 0 nd.n)
  end

(* --- search -------------------------------------------------------- *)

(* First index in [0, n) whose key is >= [key], or [n]. *)
let lower_bound keys n key =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Int64.compare keys.(mid) key < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* First index in [0, n) whose key is > [key], or [n]: the child of an
   internal node that covers [key]. *)
let upper_bound keys n key =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Int64.compare keys.(mid) key <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let rec find t ~root key =
  match (read_cached t root).node with
  | Leaf l ->
    let i = lower_bound l.keys l.n key in
    if i < l.n && Int64.equal l.keys.(i) key then Some l.vals.(i) else None
  | Internal nd -> find t ~root:nd.children.(upper_bound nd.keys nd.n key) key

(* --- release / retain ---------------------------------------------- *)

let retain_root t root = Alloc.incref t.alloc root

let rec release_root t block =
  (* Read before decref: freeing evicts the cache entry. *)
  let node = (read_cached t block).node in
  if Alloc.refcount t.alloc block = 1 then begin
    (match node with
     | Leaf l ->
       for i = 0 to l.n - 1 do
         match l.vals.(i) with Ptr b -> Alloc.decref t.alloc b | Imm _ -> ()
       done
     | Internal nd ->
       for i = 0 to nd.n do
         release_root t nd.children.(i)
       done);
    Alloc.decref t.alloc block
  end
  else Alloc.decref t.alloc block

(* --- insert -------------------------------------------------------- *)

(* Insert into the subtree at [block]; returns the new block for this
   subtree plus an optional (separator, right sibling) when it split.
   The caller owns the edge to [block]: if the returned block differs,
   the caller must decref [block] and point its edge at the new one.
   A split leaf keeps [0, n/2) and the right sibling gets the rest; a
   split internal node promotes keys.(n/2). *)
let rec insert_rec t block key value =
  let c = cow t block in
  match c.node with
  | Leaf l ->
    let i = lower_bound l.keys l.n key in
    if i < l.n && Int64.equal l.keys.(i) key then begin
      (match l.vals.(i) with
       | Ptr old -> Alloc.decref t.alloc old
       | Imm _ -> ());
      l.vals.(i) <- value
    end
    else begin
      Array.blit l.keys i l.keys (i + 1) (l.n - i);
      Array.blit l.vals i l.vals (i + 1) (l.n - i);
      l.keys.(i) <- key;
      l.vals.(i) <- value;
      l.n <- l.n + 1
    end;
    mark_dirty t c;
    if l.n <= max_entries then (c.block, None)
    else begin
      let n = l.n and mid = l.n / 2 in
      l.n <- mid;
      let right = new_node t (owned_leaf l.keys l.vals mid (n - mid)) in
      (c.block, Some (l.keys.(mid), right.block))
    end
  | Internal nd ->
    let idx = upper_bound nd.keys nd.n key in
    let old_child = nd.children.(idx) in
    let new_child, split = insert_rec t old_child key value in
    if new_child <> old_child then begin
      (* The edge moved to the private copy; dropping the old edge
         may orphan a whole subtree (cascade). *)
      release_root t old_child;
      nd.children.(idx) <- new_child
    end;
    (match split with
     | None -> ()
     | Some (sep, rblock) ->
       Array.blit nd.keys idx nd.keys (idx + 1) (nd.n - idx);
       Array.blit nd.children (idx + 1) nd.children (idx + 2) (nd.n - idx);
       nd.keys.(idx) <- sep;
       nd.children.(idx + 1) <- rblock;
       nd.n <- nd.n + 1);
    mark_dirty t c;
    if nd.n <= max_entries then (c.block, None)
    else begin
      (* Promote the middle key; left keeps keys [0, mid), right keeps
         (mid, n). *)
      let n = nd.n and mid = nd.n / 2 in
      nd.n <- mid;
      let right = new_node t (owned_internal nd.keys nd.children (mid + 1) (n - mid - 1)) in
      (c.block, Some (nd.keys.(mid), right.block))
    end

(* Consumes the caller's reference on [root]; the returned root carries
   the caller's reference instead. *)
let insert t ~root ~key value =
  let new_root, split = insert_rec t root key value in
  if new_root <> root then
    (* The caller's working reference moves to the private copy; if no
       generation still names the original, it is released in full. *)
    release_root t root;
  match split with
  | None -> new_root
  | Some (sep, rblock) ->
    (* The children's existing references become the new root's edges;
       the caller's reference is the fresh node itself. *)
    (new_node t (owned_internal [| sep |] [| new_root; rblock |] 0 1)).block

(* --- traversal ----------------------------------------------------- *)

let rec fold_range t ~root ~lo ~hi ~init ~f =
  match (read_cached t root).node with
  | Leaf l ->
    let acc = ref init and i = ref (lower_bound l.keys l.n lo) in
    while !i < l.n && Int64.compare l.keys.(!i) hi <= 0 do
      acc := f !acc l.keys.(!i) l.vals.(!i);
      incr i
    done;
    !acc
  | Internal nd ->
    (* Exactly the children whose key range intersects [lo, hi]. *)
    let acc = ref init in
    for i = upper_bound nd.keys nd.n lo to upper_bound nd.keys nd.n hi do
      acc := fold_range t ~root:nd.children.(i) ~lo ~hi ~init:!acc ~f
    done;
    !acc

(* --- flushing / cache management ----------------------------------- *)

let still_cached t c = Blockvec.get t.cache c.block == c

let flush_dirty ?tee ?cls t =
  let dirty = List.filter (still_cached t) t.dirty_nodes in
  t.dirty_nodes <- [];
  let dirty = List.sort (fun a b -> Int.compare a.block b.block) dirty in
  let writes = List.map (fun c -> (c.block, Blockdev.Data (encode_node c.node))) dirty in
  List.iter (fun c -> c.dirty <- false) dirty;
  let writes =
    match tee with
    | Some f -> writes @ f writes
    | None -> writes
  in
  if writes = [] then Clock.now (Devarray.clock t.dev)
  else Devarray.write_async ?cls t.dev writes

let dirty_count t = List.length (List.filter (still_cached t) t.dirty_nodes)

let cached_count t =
  let n = ref 0 in
  for b = 0 to Blockvec.length t.cache - 1 do
    if Blockvec.get t.cache b != absent then incr n
  done;
  !n

let reset_cache t =
  Blockvec.clear t.cache;
  t.dirty_nodes <- []

let drop_cache t =
  if dirty_count t > 0 then invalid_arg "Btree.drop_cache: dirty nodes remain";
  reset_cache t

type view = Leaf_view of (int64 * value) list | Internal_view of int list

let view t block =
  match (read_cached t block).node with
  | Leaf l -> Leaf_view (List.init l.n (fun i -> (l.keys.(i), l.vals.(i))))
  | Internal nd -> Internal_view (List.init (nd.n + 1) (fun i -> nd.children.(i)))

let rec node_depth t ~root =
  match (read_cached t root).node with
  | Leaf _ -> 1
  | Internal nd -> 1 + node_depth t ~root:nd.children.(0)
