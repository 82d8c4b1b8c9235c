open Aurora_simtime
open Aurora_objstore

let primary_exn (g : Types.pgroup) =
  match Types.primary_store g with
  | Some s -> s
  | None -> invalid_arg "sls log: persistence group has no local backend"

let log_count store gen ~oid =
  match Store.read_record store gen ~oid with
  | None -> 0
  | Some data -> Serial.r_int (Serial.reader data)

let cached_count (g : Types.pgroup) store ~oid =
  match List.assoc_opt oid g.Types.log_counts with
  | Some n -> n
  | None -> (
    match Store.latest store with Some gen -> log_count store gen ~oid | None -> 0)

let set_cached_count (g : Types.pgroup) ~oid n =
  g.Types.log_counts <- (oid, n) :: List.remove_assoc oid g.Types.log_counts

let flush ?oid (g : Types.pgroup) data =
  let store = primary_exn g in
  let oid = Option.value ~default:(Oidspace.ntlog g.Types.pgid) oid in
  (* The log length is cached on the group; the store read happens
     only on the first flush after a boot/restore. *)
  let count = cached_count g store ~oid in
  set_cached_count g ~oid (count + 1);
  if String.length data > Aurora_device.Blockdev.block_size then
    invalid_arg "sls_ntflush: record exceeds one block";
  ignore (Store.begin_generation store ());
  Store.put_blob store ~oid ~index:count data;
  let w = Serial.writer () in
  Serial.w_int w (count + 1);
  Store.put_record store ~oid (Serial.contents w);
  let gen, durable_at = Store.commit store () in
  g.Types.last_gen <- Some gen;
  durable_at

let read ?oid (g : Types.pgroup) =
  let store = primary_exn g in
  let oid = Option.value ~default:(Oidspace.ntlog g.Types.pgid) oid in
  match Store.latest store with
  | None -> []
  | Some gen ->
    let count = log_count store gen ~oid in
    List.init count (fun i ->
        match Store.read_blob store gen ~oid ~index:i with
        | Some data -> data
        | None -> invalid_arg (Printf.sprintf "sls log: missing entry %d" i))

let truncate ?oid (g : Types.pgroup) =
  let store = primary_exn g in
  let oid = Option.value ~default:(Oidspace.ntlog g.Types.pgid) oid in
  set_cached_count g ~oid 0;
  ignore (Store.begin_generation store ());
  let w = Serial.writer () in
  Serial.w_int w 0;
  Store.put_record store ~oid (Serial.contents w);
  let gen, _ = Store.commit store () in
  g.Types.last_gen <- Some gen

let barrier (g : Types.pgroup) =
  match g.Types.last_breakdown with
  | None -> ()
  | Some b -> Store.wait_durable (primary_exn g) b.Types.durable_at
