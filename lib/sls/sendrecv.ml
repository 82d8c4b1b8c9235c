open Aurora_device
open Aurora_simtime
open Aurora_objstore

let magic = "AURORA-IMAGE-v3"
let page_padding = String.make (Aurora_device.Blockdev.block_size - 8) '\000'

(* Object ids whose records make up the group's checkpoint. *)
let image_oids store ~gen ~pgid =
  let manifest_oid = Oidspace.manifest pgid in
  let manifest =
    match Store.read_record store gen ~oid:manifest_oid with
    | Some data -> Serialize.parse_manifest data
    | None -> raise (Restore.Error (Restore.No_manifest { gen; pgid }))
  in
  let record_oids = ref [ manifest_oid ] in
  (* The flight-recorder ring rides along when the generation carries
     one, so a promoted standby reopens to the primary's telemetry. *)
  if Store.read_record store gen ~oid:Oidspace.recorder <> None then
    record_oids := Oidspace.recorder :: !record_oids;
  let vm_oids = ref [] in
  let seen_vm = Hashtbl.create 16 in
  let rec add_vm oid =
    if not (Hashtbl.mem seen_vm oid) then begin
      Hashtbl.replace seen_vm oid ();
      vm_oids := oid :: !vm_oids;
      record_oids := Oidspace.vmobj oid :: !record_oids;
      match Store.read_record store gen ~oid:(Oidspace.vmobj oid) with
      | None ->
        raise
          (Restore.Error
             (Restore.Missing_record
                { gen; oid = Oidspace.vmobj oid; what = "vm object" }))
      | Some data ->
        Option.iter add_vm (Serialize.parse_vmobj data).Serialize.shadow_oid
    end
  in
  List.iter
    (fun pid ->
      let oid = Oidspace.proc pid in
      record_oids := oid :: !record_oids;
      match Store.read_record store gen ~oid with
      | None -> raise (Restore.Error (Restore.Missing_record { gen; oid; what = "process" }))
      | Some data ->
        List.iter
          (fun (e : Serialize.vm_entry_rec) -> add_vm e.Serialize.obj_oid)
          (Serialize.parse_proc data).Serialize.vm_entries)
    manifest.Serialize.pids;
  List.iter
    (fun oid -> record_oids := Oidspace.kobj oid :: !record_oids)
    manifest.Serialize.kobj_oids;
  let vnode_oids =
    match Aurora_slsfs.Slsfs.read_manifest store gen with
    | None -> []
    | Some (root_vid, _, vids) ->
      record_oids := Oidspace.fs_manifest_oid :: !record_oids;
      List.filter_map
        (fun vid -> if vid = root_vid then None else Some (Oidspace.vnode vid))
        vids
  in
  record_oids := vnode_oids @ !record_oids;
  (List.rev !record_oids, List.rev_map Oidspace.vmobj !vm_oids, vnode_oids)

let export store ~gen ~pgid ?base () =
  (* Image reads are replication traffic, not application reads: demote
     them so a concurrent ship does not steal the reserved foreground
     gaps from the application's own page faults. *)
  let saved_cls = Store.read_class store in
  Store.set_read_class store Iosched.Background;
  Fun.protect ~finally:(fun () -> Store.set_read_class store saved_cls)
  @@ fun () ->
  let record_oids, page_oids, blob_oids = image_oids store ~gen ~pgid in
  let w = Serial.writer () in
  Serial.w_int w pgid;
  Serial.w_list w (fun w oid ->
      Serial.w_int w oid;
      match Store.read_record store gen ~oid with
      | Some data -> Serial.w_string w data
      | None ->
        raise (Restore.Error (Restore.Missing_record { gen; oid; what = "image" })))
    record_oids;
  Serial.w_list w (fun w oid ->
      Serial.w_int w oid;
      let pages =
        Store.fold_pages store gen ~oid ~init:[] ~f:(fun acc pindex seed ->
            let unchanged =
              match base with
              | None -> false
              | Some b -> Store.read_page store b ~oid ~pindex = Some seed
            in
            if unchanged then acc else (pindex, seed) :: acc)
      in
      Serial.w_list w (fun w (pindex, seed) ->
          Serial.w_int w pindex;
          Serial.w_int64 w seed;
          (* Pad to the page size: the wire carries whole pages, and
             link-cost accounting is by payload length. *)
          Serial.w_string w page_padding)
        (List.rev pages))
    page_oids;
  Serial.w_list w (fun w oid ->
      Serial.w_int w oid;
      let blobs =
        Store.fold_blobs store gen ~oid ~init:[] ~f:(fun acc index data ->
            let unchanged =
              match base with
              | None -> false
              | Some b -> Store.read_blob store b ~oid ~index = Some data
            in
            if unchanged then acc else (index, data) :: acc)
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
  let records =
    Serial.r_list r (fun r ->
        let oid = Serial.r_int r in
        let data = Serial.r_string r in
        (oid, data))
  in
  List.iter (fun (oid, data) -> Store.put_record store ~oid data) records;
  let pages =
    Serial.r_list r (fun r ->
        let oid = Serial.r_int r in
        let ps =
          Serial.r_list r (fun r ->
              let pindex = Serial.r_int r in
              let seed = Serial.r_int64 r in
              let _padding = Serial.r_string r in
              (pindex, seed))
        in
        (oid, ps))
  in
  List.iter
    (fun (oid, ps) ->
      List.iter (fun (pindex, seed) -> Store.put_page store ~oid ~pindex ~seed) ps)
    pages;
  let blobs =
    Serial.r_list r (fun r ->
        let oid = Serial.r_int r in
        let bs =
          Serial.r_list r (fun r ->
              let index = Serial.r_int r in
              let data = Serial.r_string r in
              (index, data))
        in
        (oid, bs))
  in
  List.iter
    (fun (oid, bs) ->
      List.iter (fun (index, data) -> Store.put_blob store ~oid ~index data) bs)
    blobs;
  Store.commit store ()
