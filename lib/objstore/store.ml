open Aurora_simtime
open Aurora_device
open Aurora_vm

type gen = int

let magic = "AURORA-SLS-v3"
let superblock_slots = 2 (* blocks 0 and 1 *)

(* Two reserved blocks right after the superblocks hold the flight
   recorder's black box: a tiny summary written asynchronously on
   every checkpoint capture, outside any generation, so a post-mortem
   can name epochs that were captured but never became durable. The
   slots alternate like superblocks so a crash mid-write leaves the
   previous summary intact. *)
let blackbox_slots = 2 (* blocks 2 and 3 *)
let reserved_blocks = superblock_slots + blackbox_slots
let bbox_magic = "AURORA-BBSL-v2"

type gen_entry = { root : int; name : string option }

(* --- integrity / fault taxonomy ------------------------------------- *)

type protection = { verify : bool; mirror : bool }

type repair_origin = Mirror | Dedup_copy

type error =
  | No_superblock
  | Bad_generation_table of string
  | Out_of_space
  | Unreadable_block of { block : int; cause : string }
  | Device_failed of string

exception Fail of error

let describe_error = function
  | No_superblock -> "no valid superblock"
  | Bad_generation_table msg -> "generation table: " ^ msg
  | Out_of_space -> "device out of space"
  | Unreadable_block { block; cause } ->
    Printf.sprintf "block %d unreadable beyond repair: %s" block cause
  | Device_failed msg -> "device failed: " ^ msg

let () =
  Printexc.register_printer (function
    | Fail e -> Some ("Store failure: " ^ describe_error e)
    | _ -> None)

type io_stats = {
  mutable read_retries : int;
  mutable checksum_failures : int;
  mutable repaired_from_mirror : int;
  mutable repaired_from_dedup : int;
  mutable lost_blocks : int;
}

(* The store's instrumentation, with its counters resolved once at
   bind time. *)
type sink = {
  obs : Obs.t;
  commits : Metrics.counter;
  records_put : Metrics.counter;
  pages_put : Metrics.counter;
  flush_us : Metrics.histogram;
}

(* Per-generation storage provenance, accumulated at write time (from
   [begin_generation] through [commit]) and persisted in the
   generation table so offline inspection sees the same numbers. The
   fields are physically mutable but the interface exports the type
   [private]: only this module accumulates. *)
type provenance = {
  pv_gen : gen;
  mutable pv_records : int;
  mutable pv_pages : int;
  mutable pv_blobs : int;
  mutable pv_logical_bytes : int;
  mutable pv_data_blocks : int;
  mutable pv_dedup_hits : int;
  mutable pv_dedup_saved_bytes : int;
  mutable pv_mirror_blocks : int;
  mutable pv_meta_blocks : int;
  mutable pv_commit_blocks : int;
}

let fresh_provenance gen =
  { pv_gen = gen; pv_records = 0; pv_pages = 0; pv_blobs = 0;
    pv_logical_bytes = 0; pv_data_blocks = 0; pv_dedup_hits = 0;
    pv_dedup_saved_bytes = 0; pv_mirror_blocks = 0; pv_meta_blocks = 0;
    pv_commit_blocks = 0 }

let bytes_written p =
  (p.pv_data_blocks + p.pv_mirror_blocks + p.pv_meta_blocks + p.pv_commit_blocks)
  * Blockdev.block_size

type t = {
  dev : Devarray.t;
  alloc : Alloc.t;
  tree : Btree.t;
  dedup : Dedup.t;
  dedup_enabled : bool;
  gens : (gen, gen_entry) Hashtbl.t;
  mutable commit_seq : int;          (* superblock alternation counter *)
  mutable next_gen : gen;
  mutable gentable_blocks : int list; (* blocks holding the current gen table *)
  mutable prev_gentable_blocks : int list;
  (* The table referenced by the *other* superblock slot. Kept
     allocated until that slot is overwritten: if the crash drops the
     newest superblock, recovery falls back to the other slot, whose
     table must still be intact on disk. *)
  mutable gentable_mirror_blocks : int list;
  mutable prev_gentable_mirror_blocks : int list;
  mutable gentable_csum : int64;     (* hash of the encoded table *)
  mutable open_gen : gen option;     (* generation being built *)
  mutable open_root : int;           (* its working root, while open *)
  mutable pending : (int array * Blockdev.content array) list;
  (* Data block writes queued for the commit flush, newest chunk first:
     block [blocks.(i)] of a chunk takes [contents.(i)]. *)
  mutable prot : protection;
  csums : (int, int64) Hashtbl.t;    (* block -> expected content hash *)
  mirrors : (int, int) Hashtbl.t;    (* primary block -> mirror block *)
  io : io_stats;
  mutable repair_log : (int * repair_origin) list;
  mutable quarantined : (gen * string) list;
  provs : (gen, provenance) Hashtbl.t;
  mutable sink : sink option;
  gen_durable : (gen, Duration.t) Hashtbl.t;
  (* Committed generation -> when its superblock (hence everything it
     references) is durable. The pipeline's per-generation horizon:
     awaiting this covers exactly one epoch's writes, unlike the old
     whole-array [busy_until] barrier. *)
  mutable sb_horizon : Duration.t;
  (* Completion time of the newest superblock write. Each superblock
     is ordered after the previous one (written with [not_before] at
     least this), so superblock durability is monotone in commit
     order: recovery always sees a committed *prefix* of generations,
     never a torn suffix. *)
  mutable deferred : (Duration.t * int list) list;
  (* Freed blocks parked until the first superblock written after the
     free is durable (release time, blocks), ascending. Reusing them
     earlier could tear a crash that falls back to an older superblock
     still referencing them. *)
  mutable bbox_seq : int; (* black-box slot alternation counter *)
  mutable read_cls : Iosched.cls;
  (* The I/O class charged for store reads. [Foreground] normally;
     scrub/fsck and replication export flip it to [Background] around
     their scans so bulk verification never competes with application
     reads for reserved scheduler slack. *)
}

let open_prov t =
  match t.open_gen with
  | Some g -> Hashtbl.find_opt t.provs g
  | None -> None

(* --- key encoding ---------------------------------------------------
   key = oid * 2^34 + kind * 2^32 + index
   kinds: 0 = record length (Imm), 1 = record chunk (Ptr), 2 = page (Ptr). *)

let kind_record_len = 0L
let kind_record_chunk = 1L
let kind_page = 2L
let kind_blob = 3L

(* The same hash the dedup index uses, so a corrupted block's expected
   checksum doubles as a lookup key for a surviving duplicate. *)
let checksum_content = function
  | Blockdev.Data s -> Fnv.fnv1a s
  | Blockdev.Seed s -> Content.hash (Content.of_seed s)
  | Blockdev.Zero -> 0L

(* An index past 32 bits would carry into the kind and oid bits and
   overwrite another object's keys. *)
let check_key ~oid ~index =
  if oid < 0 || oid >= 1 lsl 29 then invalid_arg "Store: oid out of range";
  if index < 0 || index >= 1 lsl 32 then invalid_arg "Store: index out of range"

let key ~oid ~kind ~index =
  check_key ~oid ~index;
  Int64.add
    (Int64.add
       (Int64.mul (Int64.of_int oid) 0x4_0000_0000L)
       (Int64.mul kind 0x1_0000_0000L))
    (Int64.of_int index)

(* --- verified reads and read repair ---------------------------------- *)

let max_read_retries = 4

(* Retry a transiently failing read with exponential backoff, charged
   to the simulated clock; persistent faults (latent sectors, dropped
   devices, exhausted retries) surface as [Error]. *)
let rec device_read_retry t block attempt =
  match Devarray.read ~cls:t.read_cls t.dev block with
  | c -> Ok c
  | exception Fault.Io_error (Fault.Transient _ as e) ->
    if attempt >= max_read_retries then Error e
    else begin
      t.io.read_retries <- t.io.read_retries + 1;
      Clock.advance (Devarray.clock t.dev)
        (Duration.scale (Devarray.profile t.dev).Profile.read_latency (1 lsl attempt));
      device_read_retry t block (attempt + 1)
    end
  | exception Fault.Io_error e -> Error e

let heal t block content origin =
  (* Best-effort rewrite: restores the content and clears any latent
     error on the sector. If the rewrite itself fails the repair still
     served this read; the block stays degraded on disk. *)
  (try Devarray.write ~cls:Iosched.Background t.dev block content
   with Fault.Io_error _ -> ());
  t.repair_log <- (block, origin) :: t.repair_log;
  match origin with
  | Mirror -> t.io.repaired_from_mirror <- t.io.repaired_from_mirror + 1
  | Dedup_copy -> t.io.repaired_from_dedup <- t.io.repaired_from_dedup + 1

let try_repair t block expected cause =
  let candidates =
    (match Hashtbl.find_opt t.mirrors block with
     | Some m -> [ (m, Mirror) ]
     | None -> [])
    @
    (match expected with
     | Some h ->
       let b = Dedup.peek t.dedup ~hash:h in
       if b >= 0 && b <> block then [ (b, Dedup_copy) ] else []
     | None -> [])
  in
  let acceptable c =
    match expected with
    | Some h -> checksum_content c = h
    | None -> c <> Blockdev.Zero
  in
  let rec go = function
    | [] ->
      t.io.lost_blocks <- t.io.lost_blocks + 1;
      raise (Fail (Unreadable_block { block; cause }))
    | (src, origin) :: rest -> (
      match device_read_retry t src 0 with
      | Ok c when acceptable c ->
        heal t block c origin;
        c
      | Ok _ | Error _ -> go rest)
  in
  go candidates

(* Every store read funnels through here (including B+tree node reads,
   via [Btree.set_reader]): retry transients, verify the checksum when
   protection is on, repair from the mirror or a dedup duplicate, and
   raise a typed failure only when no copy survives. *)
let verified_read t block =
  let expected = if t.prot.verify then Hashtbl.find_opt t.csums block else None in
  match device_read_retry t block 0 with
  | Ok c -> (
    match expected with
    | Some h when checksum_content c <> h ->
      t.io.checksum_failures <- t.io.checksum_failures + 1;
      try_repair t block expected "checksum mismatch"
    | _ -> c)
  | Error e -> try_repair t block expected (Fault.describe e)

(* --- deferred frees --------------------------------------------------
   With pipelined commits, several superblocks can be in flight at
   once. A block freed between superblocks S_{j-1} and S_j becomes
   reusable only once S_j is durable: superblock durability is
   monotone (each is ordered after the previous), so from then on no
   recoverable state references the block. *)

(* [alloc.defer], fired per deferred-free stage. Sites guard with
   [defer_probed]: arguments are computed only for a subscriber. *)
let defer_probed t =
  match t.sink with
  | Some s -> Probe.enabled s.obs.Obs.probes Probe.Alloc_defer
  | None -> false

let fire_defer t ~op ~us ~blocks =
  match t.sink with
  | Some s ->
    Probe.fire s.obs.Obs.probes Probe.Alloc_defer ~dev:(Devarray.name t.dev) ~op
      ~gen:(-1) ~pgid:(-1) ~us ~blocks
  | None -> ()

let release_ready_frees t =
  let now = Clock.now (Devarray.clock t.dev) in
  let ready, waiting =
    List.partition (fun (at, _) -> Duration.(at <= now)) t.deferred
  in
  t.deferred <- waiting;
  List.iter (fun (_, blocks) -> Alloc.release t.alloc blocks) ready;
  if ready <> [] && defer_probed t then
    fire_defer t ~op:"release" ~us:0.
      ~blocks:(List.fold_left (fun acc (_, bs) -> acc + List.length bs) 0 ready);
  ready <> []

(* Capacity-pressure hook: rather than declare the device full while
   freed blocks sit gated behind an in-flight superblock, block until
   the earliest gating superblock lands and hand the blocks back. *)
let settle_deferred_frees t =
  let released = release_ready_frees t in
  match t.deferred with
  | [] -> released
  | (at, _) :: _ ->
    let now = Clock.now (Devarray.clock t.dev) in
    Devarray.await t.dev at;
    if defer_probed t then
      fire_defer t ~op:"settle" ~us:(Duration.to_us (Duration.sub at now)) ~blocks:0;
    ignore (release_ready_frees t);
    true

(* --- the black-box slot ----------------------------------------------
   A single-block, sealed payload written outside any generation,
   numbered so recovery can pick the newer slot. The flight recorder
   uses it to persist its capture/ack summary on every checkpoint,
   which is the only way a post-mortem can name epochs that were
   committed but never became durable: the per-generation ring
   recovered from durable generation [g] only knows about captures up
   to [g]. *)

let encode_bbox ~seq payload =
  let w = Serial.writer () in
  Serial.w_int w seq;
  Serial.w_string w payload;
  Serial.seal ~magic:bbox_magic (Serial.contents w)

let decode_bbox data =
  Result.to_option
    (Serial.unseal_with ~magic:bbox_magic data (fun r ->
         let seq = Serial.r_int r in
         let payload = Serial.r_string r in
         (seq, payload)))

let write_blackbox t payload =
  t.bbox_seq <- t.bbox_seq + 1;
  let framed = encode_bbox ~seq:t.bbox_seq payload in
  if String.length framed > Blockdev.block_size then
    invalid_arg "Store.write_blackbox: summary exceeds one block";
  let slot = superblock_slots + (t.bbox_seq mod blackbox_slots) in
  (* Asynchronous, unordered and out-of-band: the black box must never
     add a barrier to the capture path, and it must be able to land
     while the epoch flush queued just after it is still draining —
     otherwise a crash that loses the epoch also loses the summary
     naming it. A crash before the write completes loses this summary
     but leaves the other slot intact; a write fault is best-effort by
     the same argument. *)
  try ignore (Devarray.write_oob t.dev [| slot |] [| Blockdev.Data framed |])
  with Fault.Io_error _ -> ()

let read_blackbox t =
  let read_slot slot =
    match device_read_retry t slot 0 with
    | Ok (Blockdev.Data s) -> decode_bbox s
    | Ok _ | Error _ -> None
  in
  List.init blackbox_slots (fun i -> read_slot (superblock_slots + i))
  |> List.filter_map Fun.id
  |> List.sort (fun (a, _) (b, _) -> Int.compare b a)
  |> function [] -> None | (_, payload) :: _ -> Some payload

(* Resume slot alternation above any surviving summary so reopening
   never clobbers the newest valid slot with the next write. *)
let scan_bbox_seq t =
  List.init blackbox_slots (fun i -> superblock_slots + i)
  |> List.fold_left
       (fun acc slot ->
         match device_read_retry t slot 0 with
         | Ok (Blockdev.Data s) -> (
           match decode_bbox s with Some (seq, _) -> max acc seq | None -> acc)
         | Ok _ | Error _ -> acc)
       0

(* --- construction --------------------------------------------------- *)

let make ?(dedup = true) ?prot dev =
  let prot =
    match prot with
    | Some p -> p
    | None ->
      (* A faulty device gets the integrity machinery by default; a
         perfect device keeps the lean layout. *)
      if Devarray.has_faults dev then { verify = true; mirror = true }
      else { verify = false; mirror = false }
  in
  let alloc =
    Alloc.create ~first_block:reserved_blocks
      ?capacity_blocks:(Devarray.capacity_blocks dev)
      ~stripes:(Devarray.stripes dev) ()
  in
  let tree = Btree.create ~dev ~alloc in
  let dedup_index = Dedup.create ~alloc in
  let t =
    { dev; alloc; tree; dedup = dedup_index; dedup_enabled = dedup;
      gens = Hashtbl.create 16; commit_seq = 0; next_gen = 1;
      gentable_blocks = []; prev_gentable_blocks = [];
      gentable_mirror_blocks = []; prev_gentable_mirror_blocks = [];
      gentable_csum = Fnv.fnv1a ""; open_gen = None; open_root = -1;
      pending = [];
      prot; csums = Hashtbl.create 4096; mirrors = Hashtbl.create 256;
      io = { read_retries = 0; checksum_failures = 0; repaired_from_mirror = 0;
             repaired_from_dedup = 0; lost_blocks = 0 };
      repair_log = []; quarantined = []; provs = Hashtbl.create 16;
      sink = None;
      gen_durable = Hashtbl.create 16; sb_horizon = Duration.zero;
      deferred = []; bbox_seq = 0; read_cls = Iosched.Foreground }
  in
  (* Each table only has entries while its protection is on. [t.prot]
     is read per call: [open_] sets it after [make]. *)
  Alloc.add_on_free alloc (fun b ->
      if t.prot.verify then Hashtbl.remove t.csums b;
      if t.prot.mirror then
        match Hashtbl.find_opt t.mirrors b with
        | Some m ->
          Hashtbl.remove t.mirrors b;
          Alloc.decref alloc m
        | None -> ());
  Alloc.set_deferred_frees alloc true;
  Alloc.set_pressure_hook alloc (fun () -> settle_deferred_frees t);
  Btree.set_reader tree (fun b -> verified_read t b);
  t

(* The superblock is sealed, so a silently corrupted slot is rejected
   at recovery instead of trusted. *)
let encode_superblock t =
  let w = Serial.writer () in
  Serial.w_int w t.commit_seq;
  Serial.w_int w t.next_gen;
  Serial.w_list w Serial.w_int t.gentable_blocks;
  Serial.w_u8 w (if t.prot.verify then 1 else 0);
  Serial.w_u8 w (if t.prot.mirror then 1 else 0);
  Serial.w_list w Serial.w_int t.gentable_mirror_blocks;
  Serial.w_int64 w t.gentable_csum;
  Serial.seal ~magic (Serial.contents w)

type superblock = {
  sb_seq : int;
  sb_next_gen : int;
  sb_table : int list;
  sb_verify : bool;
  sb_mirror : bool;
  sb_table_mirror : int list;
  sb_table_csum : int64;
}

let decode_superblock data =
  Result.to_option
    (Serial.unseal_with ~magic data (fun r ->
         let sb_seq = Serial.r_int r in
         let sb_next_gen = Serial.r_int r in
         let sb_table = Serial.r_list r Serial.r_int in
         let sb_verify = Serial.r_u8 r = 1 in
         let sb_mirror = Serial.r_u8 r = 1 in
         let sb_table_mirror = Serial.r_list r Serial.r_int in
         let sb_table_csum = Serial.r_int64 r in
         { sb_seq; sb_next_gen; sb_table; sb_verify; sb_mirror;
           sb_table_mirror; sb_table_csum }))

let encode_gentable t =
  let w = Serial.writer () in
  let entries =
    Hashtbl.fold (fun g e acc -> (g, e) :: acc) t.gens []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  Serial.w_list w (fun w (g, e) ->
      Serial.w_int w g;
      Serial.w_int w e.root;
      Serial.w_option w Serial.w_string e.name)
    entries;
  if t.prot.verify then begin
    let cs =
      Hashtbl.fold (fun b c acc -> (b, c) :: acc) t.csums []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    in
    Serial.w_list w (fun w (b, c) ->
        Serial.w_int w b;
        Serial.w_int64 w c)
      cs
  end;
  if t.prot.mirror then begin
    let ms =
      Hashtbl.fold (fun b m acc -> (b, m) :: acc) t.mirrors []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    in
    Serial.w_list w (fun w (b, m) ->
        Serial.w_int w b;
        Serial.w_int w m)
      ms
  end;
  (* Provenance of committed generations rides in the table so offline
     inspection of a reopened store sees write-time accounting too. *)
  let pvs =
    Hashtbl.fold
      (fun g p acc -> if Hashtbl.mem t.gens g then (g, p) :: acc else acc)
      t.provs []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  Serial.w_list w (fun w (_, p) ->
      Serial.w_int w p.pv_gen;
      Serial.w_int w p.pv_records;
      Serial.w_int w p.pv_pages;
      Serial.w_int w p.pv_blobs;
      Serial.w_int w p.pv_logical_bytes;
      Serial.w_int w p.pv_data_blocks;
      Serial.w_int w p.pv_dedup_hits;
      Serial.w_int w p.pv_dedup_saved_bytes;
      Serial.w_int w p.pv_mirror_blocks;
      Serial.w_int w p.pv_meta_blocks;
      Serial.w_int w p.pv_commit_blocks)
    pvs;
  Serial.contents w

let decode_gentable ~verify ~mirror data =
  let r = Serial.reader data in
  let entries =
    Serial.r_list r (fun r ->
        let g = Serial.r_int r in
        let root = Serial.r_int r in
        let name = Serial.r_option r Serial.r_string in
        (g, { root; name }))
  in
  let csums =
    if verify then
      Serial.r_list r (fun r ->
          let b = Serial.r_int r in
          let c = Serial.r_int64 r in
          (b, c))
    else []
  in
  let mirrors =
    if mirror then
      Serial.r_list r (fun r ->
          let b = Serial.r_int r in
          let m = Serial.r_int r in
          (b, m))
    else []
  in
  let provs =
    Serial.r_list r (fun r ->
        let pv_gen = Serial.r_int r in
        let pv_records = Serial.r_int r in
        let pv_pages = Serial.r_int r in
        let pv_blobs = Serial.r_int r in
        let pv_logical_bytes = Serial.r_int r in
        let pv_data_blocks = Serial.r_int r in
        let pv_dedup_hits = Serial.r_int r in
        let pv_dedup_saved_bytes = Serial.r_int r in
        let pv_mirror_blocks = Serial.r_int r in
        let pv_meta_blocks = Serial.r_int r in
        let pv_commit_blocks = Serial.r_int r in
        { pv_gen; pv_records; pv_pages; pv_blobs; pv_logical_bytes;
          pv_data_blocks; pv_dedup_hits; pv_dedup_saved_bytes;
          pv_mirror_blocks; pv_meta_blocks; pv_commit_blocks })
  in
  (entries, csums, mirrors, provs)

let format ?dedup ?protection ~dev () =
  let t = make ?dedup ?prot:protection dev in
  (* Empty gen table: superblock alone describes the store. *)
  Devarray.write dev 0 (Blockdev.Data (encode_superblock t));
  Devarray.flush dev;
  t

let device t = t.dev
let protection t = t.prot
let read_class t = t.read_cls
let set_read_class t cls = t.read_cls <- cls

let set_obs t obs =
  t.sink <-
    Option.map
      (fun (o : Obs.t) ->
        let m = o.Obs.metrics and pre = "store." ^ Devarray.name t.dev ^ "." in
        { obs = o; commits = Metrics.counter m (pre ^ "commits");
          records_put = Metrics.counter m (pre ^ "records_put");
          pages_put = Metrics.counter m (pre ^ "pages_put");
          flush_us = Metrics.histogram m (pre ^ "flush_us") })
      obs

(* --- commit ---------------------------------------------------------- *)

let chunk_string data =
  let n = String.length data in
  let nchunks = (n + Blockdev.block_size - 1) / Blockdev.block_size in
  List.init nchunks (fun i ->
      String.sub data (i * Blockdev.block_size)
        (min Blockdev.block_size (n - (i * Blockdev.block_size))))

let require_open t =
  match t.open_gen with
  | Some g -> g
  | None -> invalid_arg "Store: no open generation"

let require_closed t =
  if t.open_gen <> None then invalid_arg "Store: a generation is already open"

let begin_generation t ?base () =
  require_closed t;
  let g = t.next_gen in
  t.next_gen <- g + 1;
  Btree.begin_epoch t.tree g;
  let base =
    match base with
    | Some b -> Some b
    | None ->
      Hashtbl.fold (fun g' _ acc ->
          match acc with Some best when best >= g' -> acc | _ -> Some g')
        t.gens None
  in
  let root =
    match base with
    | None -> Btree.empty_root t.tree
    | Some b -> (
      match Hashtbl.find_opt t.gens b with
      | None -> invalid_arg (Printf.sprintf "Store: unknown base generation %d" b)
      | Some e ->
        (* The working tree holds its own reference; the base keeps
           its generation-table reference. *)
        Btree.retain_root t.tree e.root;
        e.root)
  in
  t.open_gen <- Some g;
  t.open_root <- root;
  Hashtbl.replace t.provs g (fresh_provenance g);
  g

let tree_insert t key value =
  ignore (require_open t);
  t.open_root <- Btree.insert t.tree ~root:t.open_root ~key value

let note_csum t block content =
  if t.prot.verify then Hashtbl.replace t.csums block (checksum_content content)

let queue_chunk t blocks contents = t.pending <- (blocks, contents) :: t.pending

(* Queue a chunk of data blocks for the commit flush and count them,
   recording each block's checksum and (when mirroring) allocating and
   queueing its replica, as a one-entry chunk, in the same batch. *)
let queue_data t blocks contents =
  queue_chunk t blocks contents;
  (match open_prov t with
   | Some p -> p.pv_data_blocks <- p.pv_data_blocks + Array.length blocks
   | None -> ());
  if t.prot.verify || t.prot.mirror then
    Array.iteri
      (fun i block ->
        let content = contents.(i) in
        note_csum t block content;
        if t.prot.mirror && not (Hashtbl.mem t.mirrors block) then begin
          let m = Alloc.alloc t.alloc in
          Hashtbl.replace t.mirrors block m;
          queue_chunk t [| m |] [| content |];
          match open_prov t with
          | Some p -> p.pv_mirror_blocks <- p.pv_mirror_blocks + 1
          | None -> ()
        end)
      blocks

(* The queued chunks joined into one column pair, in queueing order;
   nothing stays queued. *)
let take_pending t =
  let chunks = t.pending in
  t.pending <- [];
  let n = List.fold_left (fun n (blocks, _) -> n + Array.length blocks) 0 chunks in
  let blocks = Array.make n 0 and contents = Array.make n Blockdev.Zero in
  ignore
    (List.fold_left
       (fun at (b, c) ->
         let at = at - Array.length b in
         Array.blit b 0 blocks at (Array.length b);
         Array.blit c 0 contents at (Array.length c);
         at)
       n chunks);
  (blocks, contents)

(* A dedup hit (or an intra-batch duplicate) is one avoided write:
   credit the generation's provenance and the index's savings ledger. *)
let note_dedup_saved t ~hits ~bytes =
  if hits > 0 then begin
    Dedup.note_saved t.dedup ~bytes;
    match open_prov t with
    | Some p ->
      p.pv_dedup_hits <- p.pv_dedup_hits + hits;
      p.pv_dedup_saved_bytes <- p.pv_dedup_saved_bytes + bytes
    | None -> ()
  end

let put_record t ~oid data =
  ignore (require_open t);
  let root = t.open_root in
  (match t.sink with Some s -> Metrics.incr s.records_put | None -> ());
  (match open_prov t with
   | Some p ->
     p.pv_records <- p.pv_records + 1;
     p.pv_logical_bytes <- p.pv_logical_bytes + String.length data
   | None -> ());
  (* Stale chunks from a longer previous record are overwritten with
     immediates so their blocks are released. *)
  let old_chunks =
    match Btree.find t.tree ~root (key ~oid ~kind:kind_record_len ~index:1) with
    | Some (Btree.Imm n) -> Int64.to_int n
    | Some (Btree.Ptr _) | None -> 0
  in
  let chunks = chunk_string data in
  let nchunks = List.length chunks in
  List.iteri
    (fun i chunk ->
      let block = Alloc.alloc t.alloc in
      queue_data t [| block |] [| Blockdev.Data chunk |];
      tree_insert t (key ~oid ~kind:kind_record_chunk ~index:i) (Btree.Ptr block))
    chunks;
  let rec blank i =
    if i < old_chunks then begin
      tree_insert t (key ~oid ~kind:kind_record_chunk ~index:i) (Btree.Imm 0L);
      blank (i + 1)
    end
  in
  blank nchunks;
  tree_insert t (key ~oid ~kind:kind_record_len ~index:0)
    (Btree.Imm (Int64.of_int (String.length data)));
  tree_insert t (key ~oid ~kind:kind_record_len ~index:1)
    (Btree.Imm (Int64.of_int nchunks))

(* Batched page ingest: dedup hits resolve to existing blocks; the
   distinct misses share one stripe-aware extent of fresh contiguous
   logical blocks, queued as one chunk, so the background flush fans
   the batch out as one contiguous physical run per device instead of
   scattered singleton writes. Hashes live in a byte column, and the
   index and the batch's table of misses read them there in place. *)
let put_page_columns t ~oid ~pindexes ~seeds =
  ignore (require_open t);
  let n = Array.length pindexes in
  if Bytes.length seeds <> n * Content.slot_bytes then
    invalid_arg "Store.put_page_columns: column lengths differ";
  Array.iter (fun pindex -> check_key ~oid ~index:pindex) pindexes;
  (match t.sink with Some s -> Metrics.add s.pages_put n | None -> ());
  (match open_prov t with
   | Some p ->
     p.pv_pages <- p.pv_pages + n;
     p.pv_logical_bytes <- p.pv_logical_bytes + (n * Blockdev.block_size)
   | None -> ());
  if n > 0 then begin
    let hashes = if t.dedup_enabled then Content.hash_column seeds else Bytes.empty in
    (* Per page: its dedup-hit block, or -(s + 1) for slot s of the
       fresh extent. [fresh] lists the pages the index missed; the slot
       pass below compacts it in place to the first page of each
       slot. *)
    let where = Array.make n 0 and fresh = Array.make n 0 in
    let nmiss = ref 0 in
    for i = 0 to n - 1 do
      let hit = if t.dedup_enabled then Dedup.find_in t.dedup hashes i else -1 in
      if hit >= 0 then begin
        Alloc.incref t.alloc hit;
        where.(i) <- hit
      end
      else begin
        fresh.(!nmiss) <- i;
        incr nmiss
      end
    done;
    (* Misses that repeat within the batch share a slot, found through
       a table from hash to slot sized for every miss. A slot is never
       numbered past the miss that opens it, so the compaction only
       overwrites entries already read. *)
    let batch = Dedup.Table.create (if t.dedup_enabled then !nmiss else 0) in
    let nslots = ref 0 in
    for j = 0 to !nmiss - 1 do
      let i = fresh.(j) in
      let s = if t.dedup_enabled then Dedup.Table.add_in batch hashes i !nslots else !nslots in
      if s = !nslots then begin
        incr nslots;
        fresh.(s) <- i
      end;
      where.(i) <- -(s + 1)
    done;
    let nslots = !nslots in
    (* Every page that did not need a fresh slot — a dedup hit or an
       intra-batch duplicate — is one avoided block write. *)
    note_dedup_saved t ~hits:(n - nslots) ~bytes:((n - nslots) * Blockdev.block_size);
    let ext = Alloc.alloc_extent t.alloc nslots in
    let contents =
      Array.init nslots (fun s -> Blockdev.Seed (Content.to_seed (Content.get seeds fresh.(s))))
    in
    queue_data t ext contents;
    if t.dedup_enabled then
      for s = 0 to nslots - 1 do
        Dedup.add_in t.dedup hashes fresh.(s) ~block:ext.(s)
      done;
    (* The first reference to a fresh block consumes the allocation's
       refcount; intra-batch duplicates add their own. *)
    for i = 0 to n - 1 do
      let w = where.(i) in
      let block =
        if w >= 0 then w
        else begin
          let s = -w - 1 in
          if fresh.(s) <> i then Alloc.incref t.alloc ext.(s);
          ext.(s)
        end
      in
      tree_insert t (key ~oid ~kind:kind_page ~index:pindexes.(i)) (Btree.Ptr block)
    done
  end

let put_pages t ~oid pages =
  let seeds = Bytes.create (Array.length pages * Content.slot_bytes) in
  Array.iteri (fun i (_, seed) -> Content.set seeds i (Content.of_seed seed)) pages;
  put_page_columns t ~oid ~pindexes:(Array.map fst pages) ~seeds

let put_blob t ~oid ~index data =
  ignore (require_open t);
  let k = key ~oid ~kind:kind_blob ~index in
  if String.length data > Blockdev.block_size then
    invalid_arg "Store.put_blob: blob exceeds block size";
  (match open_prov t with
   | Some p ->
     p.pv_blobs <- p.pv_blobs + 1;
     p.pv_logical_bytes <- p.pv_logical_bytes + String.length data
   | None -> ());
  let hash = Fnv.fnv1a data in
  let found = if t.dedup_enabled then Dedup.find t.dedup ~hash else -1 in
  let block =
    if found >= 0 then begin
      Alloc.incref t.alloc found;
      note_dedup_saved t ~hits:1 ~bytes:(String.length data);
      found
    end
    else begin
      let block = Alloc.alloc t.alloc in
      queue_data t [| block |] [| Blockdev.Data data |];
      if t.dedup_enabled then Dedup.add t.dedup ~hash ~block;
      block
    end
  in
  tree_insert t k (Btree.Ptr block)

(* Checksum and mirror the B+tree node flush: observes the queued node
   columns and returns the replicas' columns, for the same submission. *)
let meta_tee t blocks contents =
  Array.iteri (fun i b -> note_csum t b contents.(i)) blocks;
  if not t.prot.mirror then ([||], [||])
  else
    ( Array.map
        (fun b ->
          match Hashtbl.find_opt t.mirrors b with
          | Some m -> m
          | None ->
            let m = Alloc.alloc t.alloc in
            Hashtbl.replace t.mirrors b m;
            m)
        blocks,
      contents )

let write_superblock ?(after = Duration.zero) t =
  (* Allocate and queue the new generation table (and its mirror)
     before touching any in-memory state: an out-of-space or device
     failure here unwinds cleanly, with the fresh blocks reclaimed by
     the rollback rebuild. Only then free the table referenced by the
     superblock slot this write is about to overwrite (the other slot
     still points at [t.gentable_blocks]; the deferral pen keeps both
     tables unreusable until this superblock lands).

     The superblock is ordered after exactly its own dependencies —
     the table chunks just queued, [after] (when the caller's data and
     tree submissions for this generation complete), and the previous
     superblock ([sb_horizon], which transitively covers
     every older generation). That replaces the old whole-array
     commit barrier: unrelated app I/O and *younger* epochs sharing
     the queues no longer gate this commit, yet a durable superblock
     still implies durable contents, and superblock durability stays
     monotone in commit order (the crash-prefix invariant). *)
  let table = encode_gentable t in
  let chunks = Array.of_list (List.map (fun c -> Blockdev.Data c) (chunk_string table)) in
  let blocks = Array.map (fun _ -> Alloc.alloc t.alloc) chunks in
  let mirror_blocks =
    if t.prot.mirror then Array.map (fun _ -> Alloc.alloc t.alloc) chunks else [||]
  in
  let table_done =
    Devarray.write_async_arr ~cls:Iosched.Deadline t.dev
      (Array.append blocks mirror_blocks)
      (if t.prot.mirror then Array.append chunks chunks else chunks)
  in
  List.iter (fun b -> Alloc.decref t.alloc b) t.prev_gentable_blocks;
  List.iter (fun b -> Alloc.decref t.alloc b) t.prev_gentable_mirror_blocks;
  t.prev_gentable_blocks <- t.gentable_blocks;
  t.prev_gentable_mirror_blocks <- t.gentable_mirror_blocks;
  t.gentable_blocks <- Array.to_list blocks;
  t.gentable_mirror_blocks <- Array.to_list mirror_blocks;
  t.gentable_csum <- Fnv.fnv1a table;
  t.commit_seq <- t.commit_seq + 1;
  let slot = t.commit_seq mod superblock_slots in
  let not_before = Duration.max after (Duration.max table_done t.sb_horizon) in
  let durable_at =
    Devarray.write_async_arr ~not_before ~cls:Iosched.Deadline t.dev [| slot |]
      [| Blockdev.Data (encode_superblock t) |]
  in
  (* Blocks freed since the previous superblock become reusable once
     this one is durable. *)
  (match Alloc.take_parked t.alloc with
   | [] -> ()
   | parked ->
     if defer_probed t then fire_defer t ~op:"park" ~us:0. ~blocks:(List.length parked);
     t.deferred <- t.deferred @ [ (durable_at, parked) ]);
  t.sb_horizon <- durable_at;
  ignore (release_ready_frees t);
  durable_at

(* --- reachability -------------------------------------------------------
   What a committed generation references: its root, every child link
   and value pointer below it, each reachable block's mirror, and both
   generation tables. Recovery rebuilds refcounts from this rule;
   scrub, fsck, crosscheck and the provenance reports check the store
   against it. *)

(* Depth-first walk of the tree under [root]. [edge] sees every
   reference, repeats included, because one reference is one refcount.
   [node] and [data] see a tree node or a pointed-to block on its first
   visit, tracked in the caller's [seen]. A node that fails to read or
   decode goes to [bad] and its subtree is skipped; by default the
   failure propagates. *)
let walk t ~seen ?(edge = ignore) ?(node = ignore) ?(data = ignore)
    ?(bad = fun _ e -> raise e) root =
  let first b = if Hashtbl.mem seen b then false else (Hashtbl.replace seen b (); true) in
  let rec go block =
    edge block;
    if first block then begin
      node block;
      match Btree.view t.tree block with
      | Btree.Internal_view children -> List.iter go children
      | Btree.Leaf_view entries ->
        List.iter
          (function
            | _, Btree.Ptr b ->
              edge b;
              if first b then data b
            | _, Btree.Imm _ -> ())
          entries
      | exception ((Serial.Corrupt _ | Fail _) as e) -> bad block e
    end
  in
  go root

let table_blocks t =
  t.gentable_blocks @ t.prev_gentable_blocks @ t.gentable_mirror_blocks
  @ t.prev_gentable_mirror_blocks

let generations t =
  Hashtbl.fold (fun g _ acc -> g :: acc) t.gens [] |> List.sort Int.compare

exception Quarantine

(* Run [f] over generation [g]. A block that no copy can repair, or a
   node that does not decode, drops [g] from the store, reports it lost
   and raises [Quarantine]. *)
let quarantine t g f =
  let drop reason =
    Hashtbl.remove t.gens g;
    Hashtbl.remove t.provs g;
    t.quarantined <- (g, reason) :: t.quarantined;
    raise Quarantine
  in
  try f () with
  | Fail (Unreadable_block { block; cause }) -> drop (Printf.sprintf "block %d: %s" block cause)
  | Serial.Corrupt msg -> drop msg

(* --- recovery core (shared by open, rollback and scrub) -------------- *)

(* Rebuild reference counts by walking every generation: a block's
   count is the number of references that reach it. Generations go in
   ascending order, because the verified reads are charged to the
   simulated clock. A generation whose walk hits an unrepairable block
   is quarantined and the walk restarts over the survivors. *)
let recover_refcounts t =
  let mark = Alloc.mark_live t.alloc in
  let mark_mirror b = Option.iter mark (Hashtbl.find_opt t.mirrors b) in
  (* Rebuild the dedup index from the data blocks. Identical content
     may sit in several blocks (record chunks are not deduped at write
     time), so first mapping wins. *)
  let index b =
    mark_mirror b;
    let add hash = if Dedup.peek t.dedup ~hash < 0 then Dedup.add t.dedup ~hash ~block:b in
    match verified_read t b with
    | Blockdev.Seed s -> add (Content.hash (Content.of_seed s))
    | Blockdev.Data d -> add (Fnv.fnv1a d)
    | Blockdev.Zero -> ()
  in
  let rec attempt () =
    Alloc.reset t.alloc;
    Dedup.reset t.dedup;
    List.iter mark (table_blocks t);
    let seen = Hashtbl.create 4096 in
    match
      List.iter
        (fun g ->
          let root = (Hashtbl.find t.gens g).root in
          quarantine t g (fun () -> walk t ~seen ~edge:mark ~node:mark_mirror ~data:index root))
        (generations t)
    with
    | () -> ()
    | exception Quarantine -> attempt ()
  in
  attempt ()

(* After a rebuild, drop integrity records of blocks that did not
   survive ([Alloc.reset] does not fire the free hooks). *)
let prune_protection t =
  let dead_csums =
    Hashtbl.fold
      (fun b _ acc -> if Alloc.refcount t.alloc b = 0 then b :: acc else acc)
      t.csums []
  in
  List.iter (Hashtbl.remove t.csums) dead_csums;
  let dead_mirrors =
    Hashtbl.fold
      (fun b _ acc -> if Alloc.refcount t.alloc b = 0 then b :: acc else acc)
      t.mirrors []
  in
  List.iter (Hashtbl.remove t.mirrors) dead_mirrors

let rebuild t =
  (* Cached nodes may describe state the device never saw (dirty nodes
     of an aborted generation); recovery trusts only the device. *)
  Btree.reset_cache t.tree;
  recover_refcounts t;
  prune_protection t;
  (* Deferred frees still gated by an in-flight superblock are
     quarantined rather than released: an older superblock referencing
     them could still win a post-crash recovery. They leak as holes
     the fresh pointer skips — reclaimed at the next full reopen. *)
  List.iter
    (fun (_, blocks) -> List.iter (Alloc.bump_fresh t.alloc) blocks)
    t.deferred;
  t.deferred <- []

(* --- commit (continued) ---------------------------------------------- *)

let note_flush t ~gen ~started ~durable_at ~data_blocks =
  match t.sink with
  | None -> ()
  | Some s ->
    let flush = Duration.sub durable_at started in
    Metrics.incr s.commits;
    Metrics.observe_duration s.flush_us flush;
    Span.record s.obs.Obs.spans ~track:("store." ^ Devarray.name t.dev)
      ~name:"store.flush"
      ~attrs:[ ("gen", string_of_int gen); ("data_blocks", string_of_int data_blocks) ]
      ~start_at:started ~end_at:durable_at ();
    if Probe.enabled s.obs.Obs.probes Probe.Store_commit then
      Probe.fire s.obs.Obs.probes Probe.Store_commit ~dev:(Devarray.name t.dev)
        ~op:"commit" ~gen ~pgid:(-1) ~us:(Duration.to_us flush) ~blocks:data_blocks

let commit_unchecked t ?name ?(cls = Iosched.Flush) () =
  let g = require_open t in
  let root = t.open_root in
  let flush_started = Clock.now (Devarray.clock t.dev) in
  t.open_gen <- None;
  Hashtbl.replace t.gens g { root; name };
  (* Data pages fan out across all stripes (per-device extents,
     overlapping in simulated time); tree nodes follow on whichever
     stripes their blocks map to; the superblock waits on the later of
     the two submissions' completions, so younger epochs and unrelated
     traffic sharing the queues don't gate it. *)
  let blocks, contents = take_pending t in
  let data_blocks = Array.length blocks in
  let data_done =
    if data_blocks > 0 then Devarray.write_async_arr ~cls t.dev blocks contents
    else Duration.zero
  in
  let prov = Hashtbl.find_opt t.provs g in
  (* The tee sees every flushed tree node, so provenance counts them
     even when the protection machinery (the tee's other job) is off. *)
  let counting_tee blocks contents =
    let extra =
      if t.prot.verify || t.prot.mirror then meta_tee t blocks contents else ([||], [||])
    in
    (match prov with
     | Some p ->
       p.pv_meta_blocks <- p.pv_meta_blocks + Array.length blocks;
       p.pv_mirror_blocks <- p.pv_mirror_blocks + Array.length (fst extra)
     | None -> ());
    extra
  in
  let tree_done = Btree.flush_dirty ~tee:counting_tee ~cls t.tree in
  (* The gentable carries the provenance rows, so the commit-block
     count must be final before the table is encoded. Ints serialize
     fixed-width: a trial encoding has the same size as the real one,
     so the chunk count measured here is exact. *)
  (match prov with
   | Some p ->
     let chunks = List.length (chunk_string (encode_gentable t)) in
     p.pv_commit_blocks <-
       1 (* superblock *) + (chunks * if t.prot.mirror then 2 else 1)
   | None -> ());
  let durable_at = write_superblock ~after:(Duration.max data_done tree_done) t in
  let g, durable_at =
    if (Devarray.profile t.dev).Profile.volatile_cache then begin
      (* No power-loss protection: a synchronous flush is the only way
         to durability, and the application pays for it. *)
      Devarray.flush t.dev;
      (g, Clock.now (Devarray.clock t.dev))
    end
    else (g, durable_at)
  in
  Hashtbl.replace t.gen_durable g durable_at;
  note_flush t ~gen:g ~started:flush_started ~durable_at ~data_blocks;
  (g, durable_at)

let rollback t g =
  Hashtbl.remove t.gens g;
  Hashtbl.remove t.provs g;
  Hashtbl.remove t.gen_durable g;
  t.open_gen <- None;
  t.pending <- [];
  rebuild t

let commit_result t ?name ?cls () =
  let g0 = require_open t in
  match commit_unchecked t ?name ?cls () with
  | res -> Ok res
  | exception Alloc.Out_of_space ->
    rollback t g0;
    Error Out_of_space
  | exception Fault.Io_error e ->
    (try rollback t g0 with Fault.Io_error _ | Fail _ -> ());
    Error (Device_failed (Fault.describe e))

let commit t ?name ?cls () =
  match commit_result t ?name ?cls () with
  | Ok res -> res
  | Error e -> raise (Fail e)

let abort_generation t =
  match t.open_gen with
  | None -> ()
  | Some g ->
    (* Discard the working tree wholesale and recompute allocator,
       dedup and protection state from the committed generations —
       robust even when the abort was triggered halfway through an
       allocation failure. *)
    Hashtbl.remove t.provs g;
    t.open_gen <- None;
    t.pending <- [];
    rebuild t

let wait_durable t at = Devarray.await t.dev at

(* --- pipeline durability --------------------------------------------- *)

let gen_durable_at t g = Hashtbl.find_opt t.gen_durable g

let wait_all_durable t =
  if (Devarray.profile t.dev).Profile.volatile_cache then Devarray.flush t.dev
  else Devarray.await t.dev t.sb_horizon;
  ignore (release_ready_frees t)

(* --- reading --------------------------------------------------------- *)

let gen_root t g =
  match Hashtbl.find_opt t.gens g with
  | Some e -> Some e.root
  | None -> (
    (* Reading from the open generation is allowed (restores from the
       working tree are not, but tests peek). *)
    match t.open_gen with
    | Some og when og = g -> Some t.open_root
    | _ -> None)

let read_block_data t block =
  match verified_read t block with
  | Blockdev.Data s -> s
  | Blockdev.Seed _ | Blockdev.Zero ->
    raise (Serial.Corrupt (Printf.sprintf "Store: block %d is not a data block" block))

let read_record t g ~oid =
  match gen_root t g with
  | None -> None
  | Some root -> (
    match Btree.find t.tree ~root (key ~oid ~kind:kind_record_len ~index:0) with
    | None | Some (Btree.Ptr _) -> None
    | Some (Btree.Imm len64) ->
      let len = Int64.to_int len64 in
      let nchunks = (len + Blockdev.block_size - 1) / Blockdev.block_size in
      let buf = Buffer.create len in
      for i = 0 to nchunks - 1 do
        match Btree.find t.tree ~root (key ~oid ~kind:kind_record_chunk ~index:i) with
        | Some (Btree.Ptr block) -> Buffer.add_string buf (read_block_data t block)
        | Some (Btree.Imm _) | None ->
          raise (Serial.Corrupt (Printf.sprintf "Store: missing chunk %d of oid %d" i oid))
      done;
      Some (Buffer.contents buf))

let read_blob t g ~oid ~index =
  match gen_root t g with
  | None -> None
  | Some root -> (
    match Btree.find t.tree ~root (key ~oid ~kind:kind_blob ~index) with
    | Some (Btree.Ptr block) -> Some (read_block_data t block)
    | Some (Btree.Imm _) | None -> None)

let page_of_content block = function
  | Blockdev.Seed s -> s
  | Blockdev.Zero -> 0L
  | Blockdev.Data _ ->
    raise (Serial.Corrupt (Printf.sprintf "Store: page block %d holds metadata" block))

(* A page's index entry, as [Btree.find] returns it: the one lookup in
   front of every single-page read. *)
let find_page t g ~oid ~pindex =
  match gen_root t g with
  | None -> None
  | Some root -> Btree.find t.tree ~root (key ~oid ~kind:kind_page ~index:pindex)

let read_page t g ~oid ~pindex =
  match find_page t g ~oid ~pindex with
  | Some (Btree.Ptr block) -> Some (page_of_content block (verified_read t block))
  | Some (Btree.Imm _) | None -> None

(* The key range of one object's entries of one kind. *)
let kind_range ~oid ~kind =
  let lo = key ~oid ~kind ~index:0 in
  (lo, Int64.add lo 0xFFFF_FFFFL)

(* A fold over the key and block of each of one object's entries of one
   kind, or with a known [base] only those whose block differs from the
   base's; [None] for an unknown generation. *)
let kind_folder t ?base g ~oid ~kind =
  match gen_root t g with
  | None -> None
  | Some root ->
    let lo, hi = kind_range ~oid ~kind in
    let base = match base with Some b -> gen_root t b | None -> None in
    Some
      (fun ~init ~f ->
        match base with
        | None -> Btree.fold_ptrs t.tree ~root ~lo ~hi ~init ~f
        | Some base ->
          Btree.diff t.tree ~root ~base ~lo ~hi ~init ~f:(fun acc k block _ -> f acc k block))

let fold_kind t ?base g ~oid ~kind ~init ~f =
  match kind_folder t ?base g ~oid ~kind with
  | None -> init
  | Some fold -> fold ~init ~f:(fun acc k block -> f acc (k land 0xFFFF_FFFF) block)

type page_map = { pindexes : int array; blocks : int array }

let page_map t ?base g ~oid =
  match kind_folder t ?base g ~oid ~kind:kind_page with
  | None -> { pindexes = [||]; blocks = [||] }
  | Some fold ->
    (* Counted first, so each array is allocated once at its size. *)
    let n = fold ~init:0 ~f:(fun n _ _ -> n + 1) in
    let pindexes = Array.make n 0 and blocks = Array.make n 0 in
    ignore
      (fold ~init:0 ~f:(fun i k block ->
           pindexes.(i) <- k land 0xFFFF_FFFF;
           blocks.(i) <- block;
           i + 1));
    { pindexes; blocks }

(* A page block's content as a batch read or a peek delivered it. Both
   are best-effort: a latent sector comes back [Zero], and bit rot
   comes back as it is. The checksum catches either, and the
   single-block verified path re-reads and repairs. A page block always
   holds a [Seed], so without a checksum a [Zero] still takes that
   path. *)
let checked_page t block content =
  let content =
    match ((if t.prot.verify then Hashtbl.find_opt t.csums block else None), content) with
    | Some h, _ when checksum_content content <> h ->
      t.io.checksum_failures <- t.io.checksum_failures + 1;
      verified_read t block
    | None, Blockdev.Zero -> verified_read t block
    | _ -> content
  in
  page_of_content block content

let read_page_blocks t blocks =
  let contents = Devarray.read_many_arr ~cls:t.read_cls t.dev blocks in
  Array.mapi (fun i block -> checked_page t block contents.(i)) blocks

let peek_page_block t block = checked_page t block (Devarray.peek t.dev block)

let peek_page t g ~oid ~pindex =
  match find_page t g ~oid ~pindex with
  | Some (Btree.Ptr block) -> Some (peek_page_block t block)
  | Some (Btree.Imm _) | None -> None

let fold_pages t g ~oid ~init ~f =
  fold_kind t g ~oid ~kind:kind_page ~init ~f:(fun acc i block ->
      f acc i (page_of_content block (verified_read t block)))

let fold_blobs t ?base g ~oid ~init ~f =
  fold_kind t ?base g ~oid ~kind:kind_blob ~init ~f:(fun acc i block ->
      f acc i (read_block_data t block))

let page_count t g ~oid = fold_kind t g ~oid ~kind:kind_page ~init:0 ~f:(fun n _ _ -> n + 1)

let oids t g =
  match gen_root t g with
  | None -> []
  | Some root ->
    Btree.fold_range t.tree ~root ~lo:Int64.min_int ~hi:Int64.max_int ~init:[]
      ~f:(fun acc k _ ->
        let oid = Int64.to_int (Int64.div k 0x4_0000_0000L) in
        match acc with o :: _ when o = oid -> acc | _ -> oid :: acc)
    |> List.rev

(* --- generations ----------------------------------------------------- *)

let latest t =
  match generations t with [] -> None | gens -> Some (List.nth gens (List.length gens - 1))

let named t =
  Hashtbl.fold
    (fun g e acc -> match e.name with Some n -> (n, g) :: acc | None -> acc)
    t.gens []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find_named t name = List.assoc_opt name (named t)

let settle_durable t durable =
  if (Devarray.profile t.dev).Profile.volatile_cache then Devarray.flush t.dev
  else Devarray.await t.dev durable

let name_generation t g name =
  match Hashtbl.find_opt t.gens g with
  | None -> invalid_arg (Printf.sprintf "Store.name_generation: unknown generation %d" g)
  | Some e ->
    Hashtbl.replace t.gens g { e with name = Some name };
    settle_durable t (write_superblock t)

let gc t ~keep =
  require_closed t;
  let victims =
    List.filter (fun g -> not (List.mem g keep)) (generations t)
  in
  let before = Alloc.live_blocks t.alloc in
  List.iter
    (fun g ->
      match Hashtbl.find_opt t.gens g with
      | Some e ->
        Hashtbl.remove t.gens g;
        Hashtbl.remove t.provs g;
        Hashtbl.remove t.gen_durable g;
        Btree.release_root t.tree e.root
      | None -> ())
    victims;
  (* The release superblock drains in the background like any other
     commit; the deferral pen keeps the victims' blocks unreusable
     until it is durable, so there is nothing to await here. A
     volatile write cache still needs the explicit flush — completion
     times are not durability there. *)
  if victims <> [] then begin
    ignore (write_superblock t);
    if (Devarray.profile t.dev).Profile.volatile_cache then Devarray.flush t.dev
  end;
  before - Alloc.live_blocks t.alloc

(* --- recovery -------------------------------------------------------- *)

let open_ ~dev =
  (* A transient error on a superblock slot must not silently discard
     the newer slot; retry before giving up on it. *)
  let rec read_slot_retry slot attempt =
    match Devarray.read dev slot with
    | c -> Some c
    | exception Fault.Io_error (Fault.Transient _) when attempt < max_read_retries ->
      read_slot_retry slot (attempt + 1)
    | exception Fault.Io_error _ -> None
  in
  let read_slot slot =
    match read_slot_retry slot 0 with
    | Some (Blockdev.Data s) -> decode_superblock s
    | Some (Blockdev.Seed _) | Some Blockdev.Zero | None -> None
  in
  let candidates =
    List.filter_map read_slot (List.init superblock_slots Fun.id)
    |> List.sort (fun a b -> Int.compare b.sb_seq a.sb_seq)
  in
  let try_candidate sb =
    let t = make dev in
    t.prot <- { verify = sb.sb_verify; mirror = sb.sb_mirror };
    t.commit_seq <- sb.sb_seq;
    t.next_gen <- sb.sb_next_gen;
    t.gentable_blocks <- sb.sb_table;
    t.gentable_mirror_blocks <- sb.sb_table_mirror;
    t.gentable_csum <- sb.sb_table_csum;
    (* A store that never committed a generation has no table. *)
    if sb.sb_table = [] then Ok t
    else begin
      let read_chunk b =
        match device_read_retry t b 0 with
        | Ok (Blockdev.Data s) -> Some s
        | Ok _ | Error _ -> None
      in
      let read_table blocks =
        let rec go acc = function
          | [] -> Some (String.concat "" (List.rev acc))
          | b :: rest -> (
            match read_chunk b with
            | Some s -> go (s :: acc) rest
            | None -> None)
        in
        go [] blocks
      in
      let checked blocks =
        match read_table blocks with
        | Some s when Fnv.fnv1a s = sb.sb_table_csum -> Some s
        | Some _ | None -> None
      in
      let table =
        match checked sb.sb_table with
        | Some s -> Some s
        | None -> (
          match checked sb.sb_table_mirror with
          | Some s ->
            (* The mirror survived; heal the primary copy in place. *)
            (try
               List.iter2
                 (fun b c -> Devarray.write t.dev b (Blockdev.Data c))
                 sb.sb_table (chunk_string s)
             with Fault.Io_error _ | Invalid_argument _ -> ());
            t.repair_log <-
              List.map (fun b -> (b, Mirror)) sb.sb_table @ t.repair_log;
            t.io.repaired_from_mirror <-
              t.io.repaired_from_mirror + List.length sb.sb_table;
            Some s
          | None -> None)
      in
      match table with
      | None -> Error (Bad_generation_table "table unreadable in every copy")
      | Some data -> (
        match decode_gentable ~verify:t.prot.verify ~mirror:t.prot.mirror data with
        | exception Serial.Corrupt msg -> Error (Bad_generation_table msg)
        | entries, csums, mirrors, provs ->
          List.iter (fun (g, e) -> Hashtbl.replace t.gens g e) entries;
          List.iter (fun (b, c) -> Hashtbl.replace t.csums b c) csums;
          List.iter (fun (b, m) -> Hashtbl.replace t.mirrors b m) mirrors;
          List.iter (fun p -> Hashtbl.replace t.provs p.pv_gen p) provs;
          Ok t)
    end
  in
  let rec try_all last_err = function
    | [] -> (
      match last_err with
      | Some e -> Error e
      | None -> Error No_superblock)
    | sb :: rest -> (
      match try_candidate sb with
      | Ok t ->
        rebuild t;
        t.bbox_seq <- scan_bbox_seq t;
        Btree.begin_epoch t.tree t.next_gen;
        Ok t
      | Error e -> try_all (Some e) rest)
  in
  try_all None candidates

let open_exn ~dev =
  match open_ ~dev with Ok t -> t | Error e -> raise (Fail e)

(* --- introspection --------------------------------------------------- *)

type stats = {
  live_blocks : int;
  dedup_entries : int;
  dedup_hits : int;
  dedup_misses : int;
  dedup_bytes_saved : int;
  committed_generations : int;
}

let stats t =
  {
    live_blocks = Alloc.live_blocks t.alloc;
    dedup_entries = Dedup.entries t.dedup;
    dedup_hits = Dedup.hits t.dedup;
    dedup_misses = Dedup.misses t.dedup;
    dedup_bytes_saved = Dedup.bytes_saved t.dedup;
    committed_generations = Hashtbl.length t.gens;
  }

let capacity_blocks t = Alloc.capacity_blocks t.alloc

(* --- provenance inspection ------------------------------------------- *)

let gen_provenance t g = Hashtbl.find_opt t.provs g

let kind_of_key k = Int64.to_int (Int64.rem (Int64.div k 0x1_0000_0000L) 4L)
let oid_of_key k = Int64.to_int (Int64.div k 0x4_0000_0000L)
let index_of_key k = Int64.to_int (Int64.logand k 0xFFFF_FFFFL)

type gen_report = {
  r_gen : gen;
  r_meta_blocks : int;
  r_data_blocks : int;
  r_mirror_blocks : int;
  r_record_entries : int;
  r_page_entries : int;
  r_blob_entries : int;
  r_record_bytes : int;
  r_logical_bytes : int;
  r_exclusive_blocks : int;
  r_shared_blocks : int;
}

(* Reads go through the verifying, self-repairing path, so the report
   is the same on a live store and on one just reopened from disk. *)
let gen_report t g =
  match gen_root t g with
  | None -> None
  | Some root ->
    let own = Hashtbl.create 1024 in
    let meta = ref 0 and data = ref 0 and mirrors = ref 0 in
    let count n b =
      incr n;
      if Hashtbl.mem t.mirrors b then incr mirrors
    in
    walk t ~seen:own ~node:(count meta) ~data:(count data) root;
    let record_entries = ref 0 in
    let page_entries = ref 0 in
    let blob_entries = ref 0 in
    let record_bytes = ref 0 in
    Btree.fold_range t.tree ~root ~lo:Int64.min_int ~hi:Int64.max_int ~init:()
      ~f:(fun () k v ->
        match (v, kind_of_key k) with
        | Btree.Imm len, 0 when index_of_key k = 0 ->
          incr record_entries;
          record_bytes := !record_bytes + Int64.to_int len
        | Btree.Ptr _, 2 -> incr page_entries
        | Btree.Ptr _, 3 -> incr blob_entries
        | _ -> ());
    (* Blocks also reachable from any other committed generation are
       shared (the COW B+tree structure sharing plus dedup). *)
    let others = Hashtbl.create 4096 in
    Hashtbl.iter (fun g' e -> if g' <> g then walk t ~seen:others e.root) t.gens;
    let shared = Hashtbl.fold (fun b () n -> if Hashtbl.mem others b then n + 1 else n) own 0 in
    Some
      {
        r_gen = g;
        r_meta_blocks = !meta;
        r_data_blocks = !data;
        r_mirror_blocks = !mirrors;
        r_record_entries = !record_entries;
        r_page_entries = !page_entries;
        r_blob_entries = !blob_entries;
        r_record_bytes = !record_bytes;
        r_logical_bytes = (!page_entries * Blockdev.block_size) + !record_bytes;
        r_exclusive_blocks = Hashtbl.length own - shared;
        r_shared_blocks = shared;
      }

type crosscheck = {
  x_reachable_blocks : int;
  x_live_blocks : int;
  x_within_1pct : bool;
}

(* The attribution-sum acceptance gate: every allocated block must be
   accounted for by walking the committed generations (tree nodes, data
   blocks, their mirrors) plus the commit machinery's own blocks (both
   generation-table copies and their mirrors). *)
let crosscheck t =
  require_closed t;
  let seen = Hashtbl.create 4096 in
  Hashtbl.iter (fun _ e -> walk t ~seen e.root) t.gens;
  let add b = Hashtbl.replace seen b () in
  Hashtbl.fold (fun b () acc -> Hashtbl.find_opt t.mirrors b :: acc) seen []
  |> List.iter (Option.iter add);
  List.iter add (table_blocks t);
  let reachable = Hashtbl.length seen in
  let live = Alloc.live_blocks t.alloc in
  let within = abs (reachable - live) * 100 <= max live reachable in
  { x_reachable_blocks = reachable; x_live_blocks = live; x_within_1pct = within }

type oid_delta = {
  d_oid : int;
  d_pages_added : int;
  d_pages_removed : int;
  d_pages_changed : int;
}

type gen_diff = {
  df_from : gen;
  df_to : gen;
  df_oids_added : int list;
  df_oids_removed : int list;
  df_changed : oid_delta list;
  df_pages_added : int;
  df_pages_removed : int;
  df_pages_changed : int;
  df_bytes_delta : int;
  df_dedup_hits_delta : int;
  df_dedup_saved_delta : int;
}

let diff t ~from_gen ~to_gen =
  let root_of g =
    match gen_root t g with
    | Some r -> r
    | None -> invalid_arg (Printf.sprintf "Store.diff: unknown generation %d" g)
  in
  (* Per-oid (added, removed, changed) page counts from a tree diff each
     way: [to]'s pages whose block [from] lacks, then [from]'s pages
     whose key [to] lacks. *)
  let counts = Hashtbl.create 16 in
  let count g ~base bump =
    Btree.diff t.tree ~root:(root_of g) ~base:(root_of base) ~lo:Int64.min_int
      ~hi:Int64.max_int ~init:()
      ~f:(fun () k _ held ->
        let k = Int64.of_int k in
        if kind_of_key k = 2 then
          let oid = oid_of_key k in
          let c = Option.value ~default:(0, 0, 0) (Hashtbl.find_opt counts oid) in
          Hashtbl.replace counts oid (bump held c))
  in
  count to_gen ~base:from_gen (fun held (a, r, c) ->
      if held then (a, r, c + 1) else (a + 1, r, c));
  count from_gen ~base:to_gen (fun held (a, r, c) ->
      if held then (a, r, c) else (a, r + 1, c));
  let changed =
    Hashtbl.fold
      (fun o (a, r, c) acc ->
        { d_oid = o; d_pages_added = a; d_pages_removed = r; d_pages_changed = c } :: acc)
      counts []
    |> List.sort (fun a b -> Int.compare a.d_oid b.d_oid)
  in
  (* An oid whose every delta is an addition (a removal) appeared
     (vanished) when the other generation holds none of its pages. *)
  let only other kept =
    List.filter (fun d -> kept d + d.d_pages_changed = 0 && page_count t other ~oid:d.d_oid = 0)
      changed
    |> List.map (fun d -> d.d_oid)
  in
  let oids_added = only from_gen (fun d -> d.d_pages_removed) in
  let oids_removed = only to_gen (fun d -> d.d_pages_added) in
  let sum f = List.fold_left (fun acc d -> acc + f d) 0 changed in
  let pages_added = sum (fun d -> d.d_pages_added) in
  let pages_removed = sum (fun d -> d.d_pages_removed) in
  let prov_field f g =
    match Hashtbl.find_opt t.provs g with Some p -> f p | None -> 0
  in
  {
    df_from = from_gen;
    df_to = to_gen;
    df_oids_added = oids_added;
    df_oids_removed = oids_removed;
    df_changed = changed;
    df_pages_added = pages_added;
    df_pages_removed = pages_removed;
    df_pages_changed = sum (fun d -> d.d_pages_changed);
    df_bytes_delta = (pages_added - pages_removed) * Blockdev.block_size;
    df_dedup_hits_delta =
      prov_field (fun p -> p.pv_dedup_hits) to_gen
      - prov_field (fun p -> p.pv_dedup_hits) from_gen;
    df_dedup_saved_delta =
      prov_field (fun p -> p.pv_dedup_saved_bytes) to_gen
      - prov_field (fun p -> p.pv_dedup_saved_bytes) from_gen;
  }

let io_stats t =
  { read_retries = t.io.read_retries;
    checksum_failures = t.io.checksum_failures;
    repaired_from_mirror = t.io.repaired_from_mirror;
    repaired_from_dedup = t.io.repaired_from_dedup;
    lost_blocks = t.io.lost_blocks }

(* --- fsck / scrub ----------------------------------------------------- *)

type fsck_report = {
  problems : string list;
  healed : (int * repair_origin) list;
  lost : (gen * string) list;
  scanned_blocks : int;
}

let fsck_ok r = r.problems = [] && r.lost = []

let scrub_pass t scanned =
  (* Read every reachable block through the verifying, self-repairing
     path with cold caches, so latent sectors and rotted content are
     found and healed now rather than at the next restore. A
     generation with an unrepairable block is dropped and reported
     lost. The whole scan is background I/O. *)
  let saved_cls = t.read_cls in
  t.read_cls <- Iosched.Background;
  Fun.protect ~finally:(fun () -> t.read_cls <- saved_cls) @@ fun () ->
  Btree.reset_cache t.tree;
  let scan _ = incr scanned in
  let read b =
    scan b;
    ignore (verified_read t b)
  in
  let dropped = ref false in
  (* One [seen] per generation: a block shared by several generations
     is scanned once for each. *)
  List.iter
    (fun g ->
      let root = (Hashtbl.find t.gens g).root in
      try quarantine t g (fun () -> walk t ~seen:(Hashtbl.create 256) ~node:scan ~data:read root)
      with Quarantine -> dropped := true)
    (generations t);
  if !dropped then begin
    (* Losing a generation frees blocks; recompute counts and persist
       the shrunken table so the loss is visible after the next open. *)
    rebuild t;
    settle_durable t (write_superblock t)
  end

let fsck ?(scrub = false) t =
  require_closed t;
  let scanned = ref 0 in
  if scrub then scrub_pass t scanned;
  let problems = ref [] in
  let problem fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  let why = function Fail e -> describe_error e | Serial.Corrupt msg -> msg | e -> raise e in
  (* Count references per block: the walk's edges, both generation
     tables, and the mirror table's entries. *)
  let edges : (int, int) Hashtbl.t = Hashtbl.create 4096 in
  let edge b = Hashtbl.replace edges b (1 + Option.value ~default:0 (Hashtbl.find_opt edges b)) in
  List.iter edge (table_blocks t);
  Hashtbl.iter
    (fun primary m ->
      edge m;
      if Alloc.refcount t.alloc m = 0 then
        problem "mirror %d of block %d is unallocated" m primary)
    t.mirrors;
  let unallocated what b =
    if Alloc.refcount t.alloc b = 0 then problem "%s %d is unallocated" what b
  in
  let bad b = function
    | Serial.Corrupt msg -> problem "node %d corrupt: %s" b msg
    | e -> problem "node %d: %s" b (why e)
  in
  let seen = Hashtbl.create 4096 in
  Hashtbl.iter
    (fun _ e ->
      walk t ~seen ~edge ~node:(unallocated "reachable block") ~data:(unallocated "data block")
        ~bad e.root)
    t.gens;
  (* Reference counts must equal reachable edges. *)
  Hashtbl.iter
    (fun block n ->
      let rc = Alloc.refcount t.alloc block in
      if rc <> n then problem "block %d: refcount %d, reachable edges %d" block rc n)
    edges;
  (* Records must read back whole (an oid may hold only pages, which
     is fine; a corrupt or truncated record is not). A tree that cannot
     be listed is a problem of its generation. *)
  Hashtbl.iter
    (fun g _ ->
      match oids t g with
      | exception ((Serial.Corrupt _ | Fail _) as e) -> problem "generation %d: %s" g (why e)
      | oids ->
        List.iter
          (fun oid ->
            match read_record t g ~oid with
            | Some _ | None -> ()
            | exception ((Serial.Corrupt _ | Fail _) as e) ->
              problem "generation %d oid %d: %s" g oid (why e))
          oids)
    t.gens;
  let healed = List.rev t.repair_log in
  t.repair_log <- [];
  let lost = List.rev t.quarantined in
  t.quarantined <- [];
  { problems = List.rev !problems; healed; lost; scanned_blocks = !scanned }

let drop_caches t =
  require_closed t;
  Btree.drop_cache t.tree
