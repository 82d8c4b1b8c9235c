open Aurora_simtime
open Aurora_vfs
open Aurora_objstore

(* Store oid namespaces: vnodes live at tag 2 (see
   Aurora_sls.Oidspace, which owns the full map). *)
let vnode_tag = 2
let fs_manifest_oid = 2 (* tag 0 (manifest), slot 2 *)
let oid_of_vid vid = (vnode_tag lsl 24) lor vid

(* --- vnode records -------------------------------------------------- *)

let serialize_vnode v ~popen w =
  Serial.w_int w v.Vnode.vid;
  Serial.w_u8 w (match v.Vnode.vtype with Vnode.Reg -> 0 | Vnode.Dir -> 1);
  Serial.w_int w v.Vnode.nlink;
  Serial.w_int w popen;
  Serial.w_int w v.Vnode.size;
  (* Which chunk indexes exist (the data travels as blobs). *)
  let chunk_indexes =
    if v.Vnode.vtype = Vnode.Dir then []
    else
      List.init ((v.Vnode.size + Vnode.chunk_size - 1) / Vnode.chunk_size) Fun.id
  in
  Serial.w_list w Serial.w_int chunk_indexes

let checkpoint_vnode store v ~popen =
  let w = Serial.writer () in
  serialize_vnode v ~popen w;
  let oid = oid_of_vid v.Vnode.vid in
  Store.put_record store ~oid (Serial.contents w);
  if v.Vnode.vtype = Vnode.Reg then begin
    let nchunks = (v.Vnode.size + Vnode.chunk_size - 1) / Vnode.chunk_size in
    for ci = 0 to nchunks - 1 do
      let data = Vnode.read v ~off:(ci * Vnode.chunk_size) ~len:Vnode.chunk_size in
      Store.put_blob store ~oid ~index:ci (Bytes.to_string data)
    done
  end

(* --- namespace manifest ---------------------------------------------
   All named paths with their vnode ids, shallowest first, plus the
   full list of live vnode ids (anonymous ones carry no path). *)

let rec walk_paths fs prefix dir_vid acc =
  let dir =
    match Memfs.vnode_by_id fs dir_vid with
    | Some v -> v
    | None -> invalid_arg "Slsfs: dangling directory"
  in
  let names = Memfs.readdir fs (if prefix = "" then "/" else prefix) in
  List.fold_left
    (fun acc name ->
      let path = prefix ^ "/" ^ name in
      match Memfs.lookup_opt fs path with
      | None -> acc
      | Some v ->
        let acc = (path, v.Vnode.vid, v.Vnode.vtype) :: acc in
        if v.Vnode.vtype = Vnode.Dir then walk_paths fs path v.Vnode.vid acc else acc)
    acc names
  |> fun acc ->
  ignore dir;
  acc

let checkpoint_fs store fs ~popen_of_vid =
  let vnodes = Memfs.live_vnodes fs in
  let root_vid = (Memfs.root fs).Vnode.vid in
  let paths = List.rev (walk_paths fs "" root_vid []) in
  let w = Serial.writer () in
  Serial.w_int w root_vid;
  Serial.w_list w (fun w (path, vid, vtype) ->
      Serial.w_string w path;
      Serial.w_int w vid;
      Serial.w_u8 w (match vtype with Vnode.Reg -> 0 | Vnode.Dir -> 1))
    paths;
  Serial.w_list w Serial.w_int (List.map (fun v -> v.Vnode.vid) vnodes);
  Store.put_record store ~oid:fs_manifest_oid (Serial.contents w);
  List.iter
    (fun v ->
      if v.Vnode.vid <> root_vid then
        checkpoint_vnode store v ~popen:(popen_of_vid v.Vnode.vid))
    vnodes

(* --- restore --------------------------------------------------------- *)

let parse_manifest data =
  let r = Serial.reader data in
  let root_vid = Serial.r_int r in
  let paths =
    Serial.r_list r (fun r ->
        let path = Serial.r_string r in
        let vid = Serial.r_int r in
        let vtype =
          match Serial.r_u8 r with
          | 0 -> Vnode.Reg
          | 1 -> Vnode.Dir
          | v -> raise (Serial.Corrupt (Printf.sprintf "Slsfs: bad vtype %d" v))
        in
        (path, vid, vtype))
  in
  let vids = Serial.r_list r Serial.r_int in
  (root_vid, paths, vids)

let restore_vnode store g vid =
  match Store.read_record store g ~oid:(oid_of_vid vid) with
  | None -> invalid_arg (Printf.sprintf "Slsfs: missing vnode record %d" vid)
  | Some data ->
    let r = Serial.reader data in
    let rvid = Serial.r_int r in
    let vtype =
      match Serial.r_u8 r with
      | 0 -> Vnode.Reg
      | 1 -> Vnode.Dir
      | v -> raise (Serial.Corrupt (Printf.sprintf "Slsfs: bad vtype %d" v))
    in
    let nlink = Serial.r_int r in
    let popen = Serial.r_int r in
    let size = Serial.r_int r in
    let chunk_indexes = Serial.r_list r Serial.r_int in
    let v = Vnode.create ~vid:rvid vtype in
    v.Vnode.nlink <- nlink;
    v.Vnode.persistent_open <- popen;
    if vtype = Vnode.Reg then begin
      List.iter
        (fun ci ->
          match Store.read_blob store g ~oid:(oid_of_vid vid) ~index:ci with
          | Some blob ->
            Vnode.write v ~off:(ci * Vnode.chunk_size) (Bytes.of_string blob)
          | None -> raise (Serial.Corrupt (Printf.sprintf "Slsfs: missing chunk %d" ci)))
        chunk_indexes;
      Vnode.truncate v size;
      Vnode.clear_dirty v
    end;
    v

let restore_fs store g =
  let root_vid, paths, vids =
    match Store.read_record store g ~oid:fs_manifest_oid with
    | Some data -> parse_manifest data
    | None -> invalid_arg "Slsfs.restore_fs: no file system manifest in generation"
  in
  let fs = Memfs.create () in
  (* Recreate every vnode (anonymous ones included), then rebuild the
     namespace shallowest-path-first so parents exist. *)
  let by_vid = Hashtbl.create 64 in
  Hashtbl.replace by_vid root_vid (Memfs.root fs);
  List.iter
    (fun vid ->
      if vid <> root_vid then begin
        let v = restore_vnode store g vid in
        Hashtbl.replace by_vid vid v;
        Memfs.adopt fs v
      end)
    vids;
  let by_depth =
    List.sort
      (fun (a, _, _) (b, _, _) ->
        match
          Int.compare
            (List.length (String.split_on_char '/' a))
            (List.length (String.split_on_char '/' b))
        with
        | 0 -> String.compare a b
        | c -> c)
      paths
  in
  List.iter
    (fun (path, vid, _) ->
      match Hashtbl.find_opt by_vid vid with
      | Some v -> Memfs.attach fs ~path v
      | None -> raise (Serial.Corrupt (Printf.sprintf "Slsfs: path %s has no vnode" path)))
    by_depth;
  fs

let snapshot store ~name =
  match Store.latest store with
  | None -> None
  | Some g ->
    Store.name_generation store g name;
    Some g

let clone_fs store g = restore_fs store g
