open Aurora_device
open Aurora_simtime
open Aurora_vm
open Aurora_objstore

let magic = "AURORA-IMAGE-v3"
let page_padding = String.make (Aurora_device.Blockdev.block_size - 8) '\000'

let export store ~gen ~pgid ?base () =
  (* Image reads are replication traffic, not application reads: demote
     them so a concurrent ship does not steal the reserved foreground
     gaps from the application's own page faults. *)
  let saved_cls = Store.read_class store in
  Store.set_read_class store Iosched.Background;
  Fun.protect ~finally:(fun () -> Store.set_read_class store saved_cls)
  @@ fun () ->
  (* Every record restore reads, from its one read; then the
     flight-recorder ring when the generation carries one (so a promoted
     standby reopens to the primary's telemetry) and the file system. *)
  let records, page_oids = Restore.records store ~gen ~pgid in
  let read oid = Option.map (fun data -> (oid, data)) (Store.read_record store gen ~oid) in
  let ring = read Oidspace.recorder in
  let fs = read Oidspace.fs_manifest_oid in
  let blob_oids =
    match fs with
    | None -> []
    | Some (_, data) ->
      let root_vid, _, vids = Aurora_slsfs.Slsfs.parse_manifest data in
      List.filter_map
        (fun vid -> if vid = root_vid then None else Some (Oidspace.vnode vid))
        vids
  in
  let vnode oid =
    match read oid with
    | Some r -> r
    | None -> raise (Restore.Error (Restore.Missing_record { gen; oid; what = "image" }))
  in
  let w = Serial.writer () in
  Serial.w_int w pgid;
  Serial.w_list w (fun w (oid, data) ->
      Serial.w_int w oid;
      Serial.w_string w data)
    (records @ Option.to_list ring @ Option.to_list fs @ List.map vnode blob_oids);
  Serial.w_list w (fun w oid ->
      Serial.w_int w oid;
      (* Read as restore reads: the changed pages listed in ascending
         page index, then one batched command per device. *)
      let { Store.pindexes; blocks } = Store.page_map store ?base gen ~oid in
      let seeds = Store.read_page_blocks store blocks in
      Serial.w_list w (fun w i ->
          Serial.w_int w pindexes.(i);
          Serial.w_int64 w seeds.(i);
          (* Pad to the page size: the wire carries whole pages, and
             link-cost accounting is by payload length. *)
          Serial.w_string w page_padding)
        (List.init (Array.length seeds) Fun.id))
    page_oids;
  Serial.w_list w (fun w oid ->
      Serial.w_int w oid;
      let blobs =
        Store.fold_blobs store ?base gen ~oid ~init:[] ~f:(fun acc index data ->
            (index, data) :: acc)
      in
      Serial.w_list w (fun w (index, data) ->
          Serial.w_int w index;
          Serial.w_string w data)
        (List.rev blobs))
    blob_oids;
  (* The image travels over wires and through files the store's
     per-block checksums never see; sealing the whole body turns any
     in-flight bit flip into a typed [Bad_image] instead of a
     silently-imported corrupt generation. *)
  Serial.seal ~magic (Serial.contents w)

let import store image =
  let body =
    match Serial.unseal ~magic image with
    | Ok body -> body
    | Error msg -> raise (Restore.Error (Restore.Bad_image msg))
  in
  let r = Serial.reader body in
  let _pgid = Serial.r_int r in
  ignore (Store.begin_generation store ());
  (* Three lists of objects, each put as it is read: the records, each
     object's pages with one column put, as a checkpoint writes them,
     and the blobs. *)
  let per_object put =
    ignore
      (Serial.r_list r (fun r ->
           let oid = Serial.r_int r in
           put r oid))
  in
  per_object (fun r oid -> Store.put_record store ~oid (Serial.r_string r));
  per_object (fun r oid ->
      let ps =
        Array.of_list
          (Serial.r_list r (fun r ->
               let pindex = Serial.r_int r in
               let seed = Serial.r_int64 r in
               let _padding = Serial.r_string r in
               (pindex, seed)))
      in
      let seeds = Bytes.create (Array.length ps * Content.slot_bytes) in
      Array.iteri (fun i (_, seed) -> Content.set seeds i (Content.of_seed seed)) ps;
      Store.put_page_columns store ~oid ~pindexes:(Array.map fst ps) ~seeds);
  per_object (fun r oid ->
      ignore
        (Serial.r_list r (fun r ->
             let index = Serial.r_int r in
             Store.put_blob store ~oid ~index (Serial.r_string r))));
  Store.commit store ()
