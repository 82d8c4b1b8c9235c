type t = {
  first_block : int;
  capacity_blocks : int option;
  stripes : int;
  mutable refs : Bytes.t;
  (* The refcount of each block, 4 bytes a block; 0 = free, as is every
     block past the end. *)
  mutable free_list : int list;
  mutable next_fresh : int;
  mutable live : int;
  mutable on_free : (int -> unit) list;
  mutable defer_frees : bool;
  mutable parked : int list;
  mutable on_pressure : (unit -> bool) option;
}

exception Out_of_space

let create ~first_block ?capacity_blocks ?(stripes = 1) () =
  if first_block < 0 then invalid_arg "Alloc.create: negative first_block";
  if stripes < 1 then invalid_arg "Alloc.create: stripe count must be >= 1";
  { first_block; capacity_blocks; stripes; refs = Bytes.empty;
    free_list = []; next_fresh = first_block; live = 0; on_free = [];
    defer_frees = false; parked = []; on_pressure = None }

let capacity_blocks t = t.capacity_blocks

let refcount t block =
  if block >= 0 && 4 * block < Bytes.length t.refs then
    Int32.to_int (Bytes.get_int32_le t.refs (4 * block))
  else 0

(* For a block the column covers. *)
let[@inline] store t block n = Bytes.set_int32_le t.refs (4 * block) (Int32.of_int n)

(* [store], first growing the column by doubling until it covers
   [block]. *)
let set_refs t block n =
  if 4 * block >= Bytes.length t.refs then begin
    let len = ref (max 1024 (Bytes.length t.refs / 4)) in
    while !len <= block do
      len := 2 * !len
    done;
    let b = Bytes.make (4 * !len) '\000' in
    Bytes.blit t.refs 0 b 0 (Bytes.length t.refs);
    t.refs <- b
  end;
  store t block n

(* A count is 4 bytes; past this it would reach the sign bit. *)
let refs_limit = 1 lsl 30

let too_many what block =
  invalid_arg (Printf.sprintf "Alloc.%s: block %d already has %d references" what block refs_limit)

let add_on_free t f = t.on_free <- t.on_free @ [ f ]

let set_deferred_frees t v = t.defer_frees <- v
let set_pressure_hook t f = t.on_pressure <- Some f

let take_parked t =
  let p = t.parked in
  t.parked <- [];
  p

let release t blocks = t.free_list <- blocks @ t.free_list

(* Capacity pressure: before declaring the device full, give the owner
   a chance to settle deferred frees (blocks parked until the
   superblock that stops referencing them is durable). The hook
   returns true when it released something worth retrying for. *)
let under_pressure t =
  match t.on_pressure with None -> false | Some f -> f ()

let rec alloc t =
  match t.free_list with
  | b :: rest ->
    t.free_list <- rest;
    set_refs t b 1;
    t.live <- t.live + 1;
    b
  | [] ->
    let b = t.next_fresh in
    (match t.capacity_blocks with
     | Some cap when b >= cap ->
       if under_pressure t then alloc t else raise Out_of_space
     | _ ->
       t.next_fresh <- b + 1;
       set_refs t b 1;
       t.live <- t.live + 1;
       b)

(* A stripe-aware extent: [n] fresh {e contiguous} logical blocks.
   Under the device array's round-robin striping a contiguous logical
   run fans out across every stripe while staying physically
   contiguous on each device — the flush then needs one transfer per
   device instead of one per block. Extents larger than one stripe
   round are aligned to a stripe boundary so every device's share
   starts at the same physical offset. Once fresh space cannot hold
   the extent, its blocks come one at a time from [alloc], freed ones
   first: a bounded device keeps taking checkpoints as long as
   collection frees blocks. *)
let alloc_extent t n =
  if n < 0 then invalid_arg "Alloc.alloc_extent: negative size";
  let start =
    if n < t.stripes || t.next_fresh mod t.stripes = 0 then t.next_fresh
    else (t.next_fresh / t.stripes + 1) * t.stripes
  in
  match t.capacity_blocks with
  | Some cap when start + n > cap -> Array.init n (fun _ -> alloc t)
  | _ ->
    (* The skipped tail of the partial stripe round is not lost:
       singleton allocations drain it from the free list. *)
    for b = start - 1 downto t.next_fresh do
      t.free_list <- b :: t.free_list
    done;
    t.next_fresh <- start + n;
    t.live <- t.live + n;
    Array.init n (fun i ->
        let b = start + i in
        set_refs t b 1;
        b)

let incref t block =
  let n = refcount t block in
  if n <= 0 then invalid_arg (Printf.sprintf "Alloc.incref: dead block %d" block);
  if n >= refs_limit then too_many "incref" block;
  store t block (n + 1)

(* A top-level walk, so running the hooks allocates no closure over
   [block]. *)
let rec run_hooks block = function
  | [] -> ()
  | f :: rest ->
    f block;
    run_hooks block rest

let decref t block =
  match refcount t block with
  | n when n > 1 -> store t block (n - 1)
  | 1 ->
    store t block 0;
    (* Side tables (checksums, dedup, mirrors) are cleaned at free
       time either way; deferral only gates when the block becomes
       reusable (see Store's superblock-durability pen). *)
    if t.defer_frees then t.parked <- block :: t.parked
    else t.free_list <- block :: t.free_list;
    t.live <- t.live - 1;
    run_hooks block t.on_free
  | _ -> invalid_arg (Printf.sprintf "Alloc.decref: dead block %d" block)

let live_blocks t = t.live

let bump_fresh t block = if block >= t.next_fresh then t.next_fresh <- block + 1

let mark_live t block =
  let n = refcount t block in
  if n >= refs_limit then too_many "mark_live" block;
  set_refs t block (n + 1);
  if n = 0 then t.live <- t.live + 1;
  if block >= t.next_fresh then t.next_fresh <- block + 1

let reset t =
  Bytes.fill t.refs 0 (Bytes.length t.refs) '\000';
  t.free_list <- [];
  t.parked <- [];
  t.next_fresh <- t.first_block;
  t.live <- 0
