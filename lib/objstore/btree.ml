open Aurora_simtime
open Aurora_device
open Aurora_posix

type value = Imm of int64 | Ptr of int

(* Maximum entries per node, sized so an encoded node fits one 4 KiB
   block: leaf entries are 17 bytes, internal entries 16. *)
let max_entries = 200

(* --- node layout -----------------------------------------------------
   A node encodes as a tag byte (0 leaf, 1 internal) and an 8-byte
   entry count n, then its entries; every integer is 8 bytes,
   little-endian.
   - A leaf entry is 17 bytes: the key, a value tag (0 [Imm], 1 [Ptr])
     and the immediate or the block. A cached leaf is this block image
     itself, in one [Bytes]; its count field is written at flush.
   - An internal node has its n separator keys, then the child count
     n + 1 and the children. A cached internal node keeps the
     separators as the same 8-byte words in a [Bytes], beside an [int
     array] of children. Child i covers [keys.(i-1), keys.(i)).
   Keys ascend, and entries at and past [n] are stale. Only nodes the
   current epoch owns are ever mutated. An owned internal node has room
   for one entry past [max_entries], so an insert lands in place and
   then splits. A leaf image is private to the cache only while its
   node is dirty: a flush hands the device the exact image ([at n]
   bytes) itself, and a decoded leaf keeps the device's string. So
   once the device holds a leaf's bytes, nothing writes them again: an
   insert copies a clean leaf it owns before writing to it. No cached
   node holds a heap block per entry. *)
type node =
  | Leaf of { mutable n : int; mutable img : Bytes.t }
  | Internal of { mutable n : int; keys : Bytes.t; children : int array }

let header = 9
let entry = 17

(* Offset of leaf entry [i]: its key; the value tag is 8 bytes on and
   the value 9. *)
let[@inline] at i = header + (entry * i)
let[@inline] leaf_key img i = Bytes.get_int64_le img (at i)
let[@inline] is_ptr img p = Bytes.get_uint8 img (p + 8) = 1
let[@inline] ptr_at img p = Int64.to_int (Bytes.get_int64_le img (p + 9))
let[@inline] sep keys i = Bytes.get_int64_le keys (8 * i)

let leaf_value img i =
  let p = at i in
  if is_ptr img p then Ptr (ptr_at img p) else Imm (Bytes.get_int64_le img (p + 9))

let set_value img p = function
  | Imm x ->
    Bytes.set_uint8 img (p + 8) 0;
    Bytes.set_int64_le img (p + 9) x
  | Ptr b ->
    Bytes.set_uint8 img (p + 8) 1;
    Bytes.set_int64_le img (p + 9) (Int64.of_int b)

type cached = { block : int; node : node; epoch : int; mutable dirty : bool }

(* The filler of every empty cache slot. *)
let absent = { block = -1; node = Leaf { n = 0; img = Bytes.empty }; epoch = -1; dirty = false }

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
  (* The insert in progress: the right sibling the subtree just below
     split off, or -1, and its separator key. *)
  mutable split_right : int;
  split_key : Bytes.t;
}

let create ~dev ~alloc =
  let t = { dev; alloc; cache = Blockvec.create absent; dirty_nodes = []; current_epoch = 0;
            reader = None; split_right = -1; split_key = Bytes.make 8 '\000' } in
  (* Freed blocks must leave the cache: a freed block index can be
     reallocated with new content. *)
  Alloc.add_on_free alloc (fun b ->
      if Blockvec.get t.cache b != absent then Blockvec.set t.cache b absent);
  t

let set_reader t f = t.reader <- Some f

let begin_epoch t n = t.current_epoch <- n

(* --- node encoding ------------------------------------------------- *)

(* A dirty leaf's image becomes the device's: its count is written and
   the exact image handed over, or one exact copy of it, which the
   cache keeps in its place. *)
let encode_node node =
  let s =
    match node with
    | Leaf l ->
      Bytes.set_int64_le l.img 1 (Int64.of_int l.n);
      if Bytes.length l.img <> at l.n then l.img <- Bytes.sub l.img 0 (at l.n);
      Bytes.unsafe_to_string l.img
    | Internal nd ->
      let n = nd.n in
      let b = Bytes.create (header + (16 * n) + 16) in
      Bytes.set_uint8 b 0 1;
      Bytes.set_int64_le b 1 (Int64.of_int n);
      Bytes.blit nd.keys 0 b header (8 * n);
      let p = header + (8 * n) in
      Bytes.set_int64_le b p (Int64.of_int (n + 1));
      for i = 0 to n do
        Bytes.set_int64_le b (p + 8 + (8 * i)) (Int64.of_int nd.children.(i))
      done;
      Bytes.unsafe_to_string b
  in
  assert (String.length s <= Blockdev.block_size);
  s

(* Decoding checks the block the way a field-by-field reader would, and
   raises the same [Serial.Corrupt] message at the first field that is
   short or bad. Counts are checked before anything is allocated from
   them. *)
let need data pos len = if pos + len > String.length data then Serial.truncated data ~pos ~len

(* [need] for [count] 8-byte fields from [pos]: the first one short. *)
let need_words data pos count =
  let len = String.length data in
  if pos + (8 * count) > len then need data (pos + (8 * ((len - pos) / 8))) 8

let read_count data what =
  need data 1 8;
  let n = Int64.to_int (String.get_int64_le data 1) in
  if n < 0 || n > max_entries + 1 then
    raise (Serial.Corrupt (Printf.sprintf "Btree: %s count %d out of range" what n));
  n

let decode_node data =
  need data 0 1;
  match String.get_uint8 data 0 with
  | 0 ->
    let n = read_count data "leaf entry" in
    for i = 0 to n - 1 do
      let p = at i in
      need data p 8;
      need data (p + 8) 1;
      (match String.get_uint8 data (p + 8) with
       | 0 | 1 -> ()
       | tag -> raise (Serial.Corrupt (Printf.sprintf "Btree: bad value tag %d" tag)));
      need data (p + 9) 8
    done;
    (* Nothing writes a decoded leaf, so an exact block is its image. *)
    let img =
      if String.length data = at n then Bytes.unsafe_of_string data
      else Bytes.sub (Bytes.unsafe_of_string data) 0 (at n)
    in
    Leaf { n; img }
  | 1 ->
    let n = read_count data "internal key" in
    need_words data header n;
    let keys = Bytes.create (8 * n) in
    Bytes.blit_string data header keys 0 (8 * n);
    let p = header + (8 * n) in
    need data p 8;
    if Int64.to_int (String.get_int64_le data p) <> n + 1 then
      raise (Serial.Corrupt "Btree: child/key count mismatch");
    need_words data (p + 8) (n + 1);
    let children = Array.make (n + 1) 0 in
    for i = 0 to n do
      children.(i) <- Int64.to_int (String.get_int64_le data (p + 8 + (8 * i)))
    done;
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

(* Room for one more entry than either [max_entries] or [count] (a
   decoded node can be oversized). *)
let capacity count = max (max_entries + 1) (count + 1)

(* A leaf image of the [count] entries of [img] from entry [pos], with
   room for [room] entries. Bytes past the entries are never read or
   written to the device, so they are left as allocated. *)
let leaf_image img pos count room =
  let b = Bytes.create (at room) in
  Bytes.set_uint8 b 0 0;
  Bytes.blit img (at pos) b header (entry * count);
  b

(* An epoch-owned internal node holding [count] keys copied from [keys]
   and [children] starting at entry [pos], at capacity. Zero-filled, so
   even the stale bytes are the same in every run. *)
let owned_internal keys children pos count =
  let cap = capacity count in
  let k = Bytes.make (8 * cap) '\000' and c = Array.make (cap + 1) 0 in
  Bytes.blit keys (8 * pos) k 0 (8 * count);
  Array.blit children pos c 0 (count + 1);
  Internal { n = count; keys = k; children = c }

let empty_root t = (new_node t (Leaf { n = 0; img = Bytes.make header '\000' })).block

(* Reference bookkeeping: the tree holds one reference per edge
   (parent -> child) and per Ptr value stored in a leaf. Copying a
   node duplicates all its outgoing references. *)
let incref_contents t = function
  | Leaf l ->
    for i = 0 to l.n - 1 do
      let p = at i in
      if is_ptr l.img p then Alloc.incref t.alloc (ptr_at l.img p)
    done
  | Internal nd ->
    for i = 0 to nd.n do
      Alloc.incref t.alloc nd.children.(i)
    done

(* --- search -------------------------------------------------------- *)

(* First index in [0, n) whose leaf key is >= [key], or [n]. *)
let leaf_lower_bound img n key =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Int64.compare (leaf_key img mid) key < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* Whether entry [i] of a leaf of [n] entries is [key]'s. *)
let holds img n i key = i < n && Int64.equal (leaf_key img i) key

(* First index in [0, n) whose separator is > [key], or [n]: the child
   of an internal node that covers [key]. *)
let upper_bound keys n key =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Int64.compare (sep keys mid) key <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let rec find t ~root key =
  match (read_cached t root).node with
  | Leaf l ->
    let i = leaf_lower_bound l.img l.n key in
    if holds l.img l.n i key then Some (leaf_value l.img i) else None
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
         let p = at i in
         if is_ptr l.img p then Alloc.decref t.alloc (ptr_at l.img p)
       done
     | Internal nd ->
       for i = 0 to nd.n do
         release_root t nd.children.(i)
       done);
    Alloc.decref t.alloc block
  end
  else Alloc.decref t.alloc block

(* --- insert -------------------------------------------------------- *)

(* Make the node at [block] writable in the current epoch for an insert
   of [key]; returns the cache entry to use (either the same block, or
   a private copy). The caller owns fixing up the parent edge (and
   decreffing [block] if the edge moves). The copy is owned from then
   on. A leaf is copied at its exact size when [key] replaces an entry
   and at capacity when it adds one, so it is copied again this epoch
   only if it is flushed first, or later gains a key after a replace
   (see {!leaf_insert}). *)
let cow t block key =
  let c = read_cached t block in
  if c.epoch = t.current_epoch then c
  else begin
    incref_contents t c.node;
    new_node t
      (match c.node with
       | Leaf l ->
         let replaces = holds l.img l.n (leaf_lower_bound l.img l.n key) key in
         Leaf { n = l.n; img = leaf_image l.img 0 l.n (if replaces then l.n else capacity l.n) }
       | Internal nd -> owned_internal nd.keys nd.children 0 nd.n)
  end

(* Insert or replace [key] in the owned leaf [c]. A full image has no
   room for another key, and a clean one is the device's too: either is
   copied first, a full one to capacity. *)
let leaf_insert t c key value =
  match c.node with
  | Internal _ -> assert false
  | Leaf l ->
    let i = leaf_lower_bound l.img l.n key in
    let p = at i in
    let adds = not (holds l.img l.n i key) in
    if adds && Bytes.length l.img < at (l.n + 1) then
      l.img <- leaf_image l.img 0 l.n (capacity l.n)
    else if not c.dirty then l.img <- Bytes.copy l.img;
    if adds then begin
      Bytes.blit l.img p l.img (p + entry) (entry * (l.n - i));
      Bytes.set_int64_le l.img p key;
      l.n <- l.n + 1
    end
    else if is_ptr l.img p then Alloc.decref t.alloc (ptr_at l.img p);
    set_value l.img p value;
    mark_dirty t c

(* Insert into the subtree at [block]; returns the new block for this
   subtree, and leaves [t.split_right] and [t.split_key] set when it
   split. The caller owns the edge to [block]: if the returned block
   differs, the caller must decref [block] and point its edge at the
   new one. A split leaf keeps [0, n/2) and the right sibling gets the
   rest; a split internal node promotes keys.(n/2). *)
let rec insert_rec t block key value =
  let c = cow t block key in
  match c.node with
  | Leaf l ->
    leaf_insert t c key value;
    if l.n > max_entries then begin
      let n = l.n and mid = l.n / 2 in
      l.n <- mid;
      let count = n - mid in
      let img = leaf_image l.img mid count (capacity count) in
      let right = new_node t (Leaf { n = count; img }) in
      Bytes.blit l.img (at mid) t.split_key 0 8;
      t.split_right <- right.block
    end;
    c.block
  | Internal nd ->
    let idx = upper_bound nd.keys nd.n key in
    let old_child = nd.children.(idx) in
    let new_child = insert_rec t old_child key value in
    if new_child <> old_child then begin
      (* The edge moved to the private copy; dropping the old edge
         may orphan a whole subtree (cascade). *)
      release_root t old_child;
      nd.children.(idx) <- new_child
    end;
    if t.split_right >= 0 then begin
      Bytes.blit nd.keys (8 * idx) nd.keys (8 * (idx + 1)) (8 * (nd.n - idx));
      Array.blit nd.children (idx + 1) nd.children (idx + 2) (nd.n - idx);
      Bytes.blit t.split_key 0 nd.keys (8 * idx) 8;
      nd.children.(idx + 1) <- t.split_right;
      nd.n <- nd.n + 1;
      t.split_right <- -1
    end;
    mark_dirty t c;
    if nd.n > max_entries then begin
      (* Promote the middle key; left keeps keys [0, mid), right keeps
         (mid, n). *)
      let n = nd.n and mid = nd.n / 2 in
      nd.n <- mid;
      let right = new_node t (owned_internal nd.keys nd.children (mid + 1) (n - mid - 1)) in
      Bytes.blit nd.keys (8 * mid) t.split_key 0 8;
      t.split_right <- right.block
    end;
    c.block

(* Consumes the caller's reference on [root]; the returned root carries
   the caller's reference instead. *)
let insert t ~root ~key value =
  let new_root = insert_rec t root key value in
  if new_root <> root then
    (* The caller's working reference moves to the private copy; if no
       generation still names the original, it is released in full. *)
    release_root t root;
  if t.split_right < 0 then new_root
  else begin
    (* The children's existing references become the new root's edges;
       the caller's reference is the fresh node itself. *)
    let right = t.split_right in
    t.split_right <- -1;
    (new_node t (owned_internal t.split_key [| new_root; right |] 0 1)).block
  end

(* --- traversal ----------------------------------------------------- *)

(* [f acc img i] on each leaf entry [i] of [img] whose key lies in
   [lo, hi], in key order. *)
let rec fold_entries t ~root ~lo ~hi ~init ~f =
  match (read_cached t root).node with
  | Leaf l ->
    let acc = ref init and i = ref (leaf_lower_bound l.img l.n lo) in
    while !i < l.n && Int64.compare (leaf_key l.img !i) hi <= 0 do
      acc := f !acc l.img !i;
      incr i
    done;
    !acc
  | Internal nd ->
    (* Exactly the children whose key range intersects [lo, hi]. *)
    let acc = ref init in
    for i = upper_bound nd.keys nd.n lo to upper_bound nd.keys nd.n hi do
      acc := fold_entries t ~root:nd.children.(i) ~lo ~hi ~init:!acc ~f
    done;
    !acc

let fold_range t ~root ~lo ~hi ~init ~f =
  fold_entries t ~root ~lo ~hi ~init ~f:(fun acc img i -> f acc (leaf_key img i) (leaf_value img i))

let fold_ptrs t ~root ~lo ~hi ~init ~f =
  fold_entries t ~root ~lo ~hi ~init ~f:(fun acc img i ->
      let p = at i in
      if is_ptr img p then f acc (Int64.to_int (Bytes.get_int64_le img p)) (ptr_at img p) else acc)

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
  | Leaf l -> Leaf_view (List.init l.n (fun i -> (leaf_key l.img i, leaf_value l.img i)))
  | Internal nd -> Internal_view (List.init (nd.n + 1) (fun i -> nd.children.(i)))

let rec node_depth t ~root =
  match (read_cached t root).node with
  | Leaf _ -> 1
  | Internal nd -> 1 + node_depth t ~root:nd.children.(0)
