open Aurora_posix
open Aurora_proc

type persistence = Wal_fsync | Aurora_log

(* Memtable entries: [None] is a tombstone. *)
type t = {
  kernel : Kernel.t;
  proc : Process.t;
  dir : string;
  memtable_limit : int;
  compaction_threshold : int;
  persistence : persistence;
  mutable memtable : (string * string option) list; (* newest first *)
  mutable tables : int list;   (* live table numbers, newest first *)
  mutable next_table : int;
  mutable wal_fd : int;        (* Wal_fsync only *)
  mutable wal_seq : int;
}

let sstable_count t = List.length t.tables

let manifest_path t = t.dir ^ "/MANIFEST"
let wal_path t = t.dir ^ "/wal"
let table_path t n = Printf.sprintf "%s/%06d.sst" t.dir n

(* --- file helpers ------------------------------------------------------ *)

let read_whole k p path =
  let fd = Syscall.open_file k p path in
  let buf = Buffer.create 256 in
  let rec drain () =
    match Syscall.read k p fd ~len:65536 with
    | `Data s ->
      Buffer.add_string buf s;
      drain ()
    | `Eof | `Would_block -> ()
  in
  drain ();
  Syscall.close k p fd;
  Buffer.contents buf

let write_whole k p path data ~fsync =
  let tmp = path ^ ".tmp" in
  let fd = Syscall.open_file k p ~create:true tmp in
  ignore (Syscall.write k p fd data);
  if fsync then Syscall.fsync k p fd;
  Syscall.close k p fd;
  Syscall.rename k p ~src:tmp ~dst:path

(* --- on-disk formats ---------------------------------------------------- *)

let encode_entries entries =
  let w = Serial.writer () in
  Serial.w_list w (fun w (key, value) ->
      Serial.w_string w key;
      Serial.w_option w Serial.w_string value)
    entries;
  Serial.contents w

let decode_entries data =
  Serial.r_list (Serial.reader data) (fun r ->
      let key = Serial.r_string r in
      let value = Serial.r_option r Serial.r_string in
      (key, value))

let encode_manifest tables next_table =
  let w = Serial.writer () in
  Serial.w_list w Serial.w_int tables;
  Serial.w_int w next_table;
  Serial.contents w

let decode_manifest data =
  let r = Serial.reader data in
  let tables = Serial.r_list r Serial.r_int in
  let next_table = Serial.r_int r in
  (tables, next_table)

let wal_entry ~seq ~key ~value =
  let w = Serial.writer () in
  Serial.w_int w seq;
  Serial.w_string w key;
  Serial.w_option w Serial.w_string value;
  Serial.contents w

let decode_wal data =
  let r = Serial.reader data in
  let out = ref [] in
  (try
     while not (Serial.at_end r) do
       let seq = Serial.r_int r in
       let key = Serial.r_string r in
       let value = Serial.r_option r Serial.r_string in
       out := (seq, key, value) :: !out
     done
   with Serial.Corrupt _ -> () (* torn tail write: ignore, like real WALs *));
  List.rev !out

(* --- construction ------------------------------------------------------- *)

let ensure_dir k p path =
  match Aurora_vfs.Memfs.lookup_opt k.Kernel.fs path with
  | Some _ -> ()
  | None -> Syscall.mkdir k p path

let open_wal t =
  if t.persistence = Wal_fsync then
    t.wal_fd <- Syscall.open_file t.kernel t.proc ~create:true ~append:true (wal_path t)

let create k p ~dir ?(memtable_limit = 64) ?(compaction_threshold = 8) persistence =
  if memtable_limit <= 0 then invalid_arg "Lsmtree.create: memtable_limit <= 0";
  if compaction_threshold <= 1 then
    invalid_arg "Lsmtree.create: compaction_threshold <= 1";
  ensure_dir k p dir;
  let t =
    { kernel = k; proc = p; dir; memtable_limit; compaction_threshold; persistence;
      memtable = []; tables = []; next_table = 1; wal_fd = -1; wal_seq = 0 }
  in
  write_whole k p (manifest_path t) (encode_manifest [] 1) ~fsync:true;
  open_wal t;
  t

(* --- persistence -------------------------------------------------------- *)

let log_write t ~key ~value =
  let seq = t.wal_seq in
  t.wal_seq <- seq + 1;
  match t.persistence with
  | Wal_fsync ->
    ignore (Syscall.write t.kernel t.proc t.wal_fd (wal_entry ~seq ~key ~value));
    Syscall.fsync t.kernel t.proc t.wal_fd
  | Aurora_log ->
    ignore (Syscall.sls t.kernel t.proc (Kernel.Sls_ntflush (wal_entry ~seq ~key ~value)))

let reset_log t =
  match t.persistence with
  | Wal_fsync ->
    Syscall.close t.kernel t.proc t.wal_fd;
    (try Syscall.unlink t.kernel t.proc (wal_path t) with Syscall.Sys_error _ -> ());
    open_wal t
  | Aurora_log -> ignore (Syscall.sls t.kernel t.proc Kernel.Sls_log_truncate)

let publish_manifest t =
  write_whole t.kernel t.proc (manifest_path t)
    (encode_manifest t.tables t.next_table)
    ~fsync:true

(* --- core operations ----------------------------------------------------- *)

let memtable_upsert t ~key ~value =
  t.memtable <- (key, value) :: List.remove_assoc key t.memtable

let sorted_memtable t =
  List.sort (fun (a, _) (b, _) -> String.compare a b) t.memtable

let flush_memtable t =
  if t.memtable <> [] then begin
    let n = t.next_table in
    t.next_table <- n + 1;
    write_whole t.kernel t.proc (table_path t n)
      (encode_entries (sorted_memtable t))
      ~fsync:true;
    t.tables <- n :: t.tables;
    t.memtable <- [];
    (* Ordering: the table must be durable before the manifest names
       it, and the log resets only after the manifest is durable. *)
    publish_manifest t;
    reset_log t
  end

let table_entries t n = decode_entries (read_whole t.kernel t.proc (table_path t n))

let get t ~key =
  match List.assoc_opt key t.memtable with
  | Some v -> v
  | None ->
    let rec search = function
      | [] -> None
      | n :: older -> (
        match List.assoc_opt key (table_entries t n) with
        | Some v -> v
        | None -> search older)
    in
    search t.tables

(* Merge newest-first tables plus the memtable; newest wins; drop
   tombstones. *)
let merged_view t =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  let absorb entries =
    List.iter
      (fun (key, value) ->
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.replace seen key ();
          match value with
          | Some v -> out := (key, v) :: !out
          | None -> ()
        end)
      entries
  in
  absorb t.memtable;
  List.iter (fun n -> absorb (table_entries t n)) t.tables;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !out

let entries t = merged_view t

let compact t =
  let merged = List.map (fun (k, v) -> (k, Some v)) (merged_view t) in
  let stale_tables = t.tables in
  let had_memtable = t.memtable <> [] in
  let n = t.next_table in
  t.next_table <- n + 1;
  write_whole t.kernel t.proc (table_path t n) (encode_entries merged) ~fsync:true;
  t.tables <- [ n ];
  t.memtable <- [];
  publish_manifest t;
  if had_memtable then reset_log t;
  List.iter
    (fun stale ->
      try Syscall.unlink t.kernel t.proc (table_path t stale)
      with Syscall.Sys_error _ -> ())
    stale_tables

(* Size-tiered, single-level policy: flush when the memtable fills,
   compact when too many tables accumulate. *)
let maybe_flush t =
  if List.length t.memtable >= t.memtable_limit then flush_memtable t;
  if List.length t.tables > t.compaction_threshold then compact t

let put t ~key ~value =
  log_write t ~key ~value:(Some value);
  memtable_upsert t ~key ~value:(Some value);
  maybe_flush t

let delete t ~key =
  log_write t ~key ~value:None;
  memtable_upsert t ~key ~value:None;
  maybe_flush t

(* --- recovery ------------------------------------------------------------ *)

let recover k p ~dir persistence =
  let t =
    { kernel = k; proc = p; dir; memtable_limit = 64; compaction_threshold = 8;
      persistence; memtable = []; tables = []; next_table = 1; wal_fd = -1;
      wal_seq = 0 }
  in
  let tables, next_table = decode_manifest (read_whole k p (manifest_path t)) in
  t.tables <- tables;
  t.next_table <- next_table;
  (* Replay the log tail (entries since the last flush). *)
  let log_entries =
    match persistence with
    | Wal_fsync ->
      if Aurora_vfs.Memfs.lookup_opt k.Kernel.fs (wal_path t) = None then []
      else decode_wal (read_whole k p (wal_path t))
    | Aurora_log -> (
      match Syscall.sls k p Kernel.Sls_log_read with
      | Kernel.Sls_log raw -> List.concat_map decode_wal raw
      | Kernel.Sls_time _ -> [])
  in
  List.iter
    (fun (seq, key, value) ->
      memtable_upsert t ~key ~value;
      if seq >= t.wal_seq then t.wal_seq <- seq + 1)
    log_entries;
  open_wal t;
  t
