open Aurora_device

exception Error of string

let err fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type t = {
  root : Vnode.t;
  vnodes : (int, Vnode.t) Hashtbl.t;
  dirents : (int, (string, int) Hashtbl.t) Hashtbl.t; (* dir vid -> name -> vid *)
  backing : Blockdev.t option;
  block_map : (int * int, int) Hashtbl.t; (* (vid, chunk) -> device block *)
  durable_size : (int, int) Hashtbl.t;    (* vid -> size recorded at fsync *)
  mutable next_block : int;
}

let create ?backing () =
  let root = Vnode.create Vnode.Dir in
  let t =
    { root; vnodes = Hashtbl.create 64; dirents = Hashtbl.create 16; backing;
      block_map = Hashtbl.create 64; durable_size = Hashtbl.create 64;
      next_block = 0 }
  in
  Hashtbl.replace t.vnodes root.Vnode.vid root;
  Hashtbl.replace t.dirents root.Vnode.vid (Hashtbl.create 8);
  t

let root t = t.root

let split_path path =
  if String.length path = 0 || path.[0] <> '/' then err "relative path %S" path;
  String.split_on_char '/' path |> List.filter (fun s -> s <> "")

let entries_of t dir =
  if dir.Vnode.vtype <> Vnode.Dir then err "vnode#%d is not a directory" dir.Vnode.vid;
  match Hashtbl.find_opt t.dirents dir.Vnode.vid with
  | Some e -> e
  | None ->
    let e = Hashtbl.create 8 in
    Hashtbl.replace t.dirents dir.Vnode.vid e;
    e

let vnode_by_id t vid = Hashtbl.find_opt t.vnodes vid

let lookup_in t dir name =
  match Hashtbl.find_opt (entries_of t dir) name with
  | None -> None
  | Some vid -> vnode_by_id t vid

let rec walk t dir = function
  | [] -> dir
  | name :: rest -> (
    match lookup_in t dir name with
    | Some v -> walk t v rest
    | None -> err "no such path component %S" name)

let lookup t path = walk t t.root (split_path path)
let lookup_opt t path = try Some (lookup t path) with Error _ -> None

let parent_and_name t path =
  match List.rev (split_path path) with
  | [] -> err "cannot operate on /"
  | name :: rev_dirs -> (walk t t.root (List.rev rev_dirs), name)

let add_entry t dir name vnode =
  let entries = entries_of t dir in
  if Hashtbl.mem entries name then err "path component %S already exists" name;
  Hashtbl.replace entries name vnode.Vnode.vid

let mkdir t path =
  let dir, name = parent_and_name t path in
  let v = Vnode.create Vnode.Dir in
  add_entry t dir name v;
  Hashtbl.replace t.vnodes v.Vnode.vid v;
  Hashtbl.replace t.dirents v.Vnode.vid (Hashtbl.create 8);
  v

let create_file t path =
  let dir, name = parent_and_name t path in
  let v = Vnode.create Vnode.Reg in
  add_entry t dir name v;
  Hashtbl.replace t.vnodes v.Vnode.vid v;
  v

let link t ~existing ~path =
  let v = lookup t existing in
  if v.Vnode.vtype = Vnode.Dir then err "cannot hard-link a directory";
  let dir, name = parent_and_name t path in
  add_entry t dir name v;
  v.Vnode.nlink <- v.Vnode.nlink + 1

let reclaim t v =
  Hashtbl.remove t.vnodes v.Vnode.vid;
  Hashtbl.remove t.dirents v.Vnode.vid;
  let stale =
    Hashtbl.fold (fun (vid, ci) _ acc -> if vid = v.Vnode.vid then (vid, ci) :: acc else acc)
      t.block_map []
  in
  List.iter (Hashtbl.remove t.block_map) stale;
  Hashtbl.remove t.durable_size v.Vnode.vid

let maybe_reclaim t v =
  if v.Vnode.nlink = 0 && v.Vnode.open_count = 0 then reclaim t v

let unlink t path =
  let dir, name = parent_and_name t path in
  match lookup_in t dir name with
  | None -> err "unlink: no such path %s" path
  | Some v ->
    if v.Vnode.vtype = Vnode.Dir && Hashtbl.length (entries_of t v) > 0 then
      err "unlink: directory not empty";
    Hashtbl.remove (entries_of t dir) name;
    v.Vnode.nlink <- v.Vnode.nlink - 1;
    maybe_reclaim t v

let rename t ~src ~dst =
  let sdir, sname = parent_and_name t src in
  match lookup_in t sdir sname with
  | None -> err "rename: no such path %s" src
  | Some v ->
    let ddir, dname = parent_and_name t dst in
    (* Atomically replace the destination if present. *)
    (match lookup_in t ddir dname with
     | Some existing when existing == v -> ()
     | Some existing ->
       Hashtbl.remove (entries_of t ddir) dname;
       existing.Vnode.nlink <- existing.Vnode.nlink - 1;
       maybe_reclaim t existing
     | None -> ());
    Hashtbl.remove (entries_of t sdir) sname;
    Hashtbl.replace (entries_of t ddir) dname v.Vnode.vid

let readdir t path =
  let dir = lookup t path in
  Hashtbl.fold (fun name _ acc -> name :: acc) (entries_of t dir) []
  |> List.sort String.compare

let open_vnode _t v = v.Vnode.open_count <- v.Vnode.open_count + 1

let close_vnode t v =
  if v.Vnode.open_count <= 0 then err "close: vnode#%d not open" v.Vnode.vid;
  v.Vnode.open_count <- v.Vnode.open_count - 1;
  maybe_reclaim t v

let block_for t vid ci =
  match Hashtbl.find_opt t.block_map (vid, ci) with
  | Some b -> b
  | None ->
    let b = t.next_block in
    t.next_block <- t.next_block + 1;
    Hashtbl.replace t.block_map (vid, ci) b;
    b

let fsync t v =
  match t.backing with
  | None -> Vnode.clear_dirty v
  | Some dev ->
    let chunks = Array.of_list (Vnode.dirty_chunks v) in
    if chunks <> [||] then
      Blockdev.write_many dev
        (Array.map (block_for t v.Vnode.vid) chunks)
        (Array.map
           (fun ci ->
             let data = Vnode.read v ~off:(ci * Vnode.chunk_size) ~len:Vnode.chunk_size in
             Blockdev.Data (Bytes.to_string data))
           chunks);
    Blockdev.flush dev;
    Hashtbl.replace t.durable_size v.Vnode.vid v.Vnode.size;
    Vnode.clear_dirty v

let adopt t v =
  Hashtbl.replace t.vnodes v.Vnode.vid v;
  if v.Vnode.vtype = Vnode.Dir && not (Hashtbl.mem t.dirents v.Vnode.vid) then
    Hashtbl.replace t.dirents v.Vnode.vid (Hashtbl.create 8)

let attach t ~path v =
  let dir, name = parent_and_name t path in
  add_entry t dir name v

let live_vnodes t =
  Hashtbl.fold (fun _ v acc -> v :: acc) t.vnodes []
  |> List.sort (fun a b -> Int.compare a.Vnode.vid b.Vnode.vid)

let crash t =
  (match t.backing with
   | Some dev -> Blockdev.crash dev
   | None -> ());
  List.iter
    (fun v ->
      if v.Vnode.vtype = Vnode.Reg then begin
        (* Anonymous files (unlinked but open) are reclaimed by a
           conventional file system — unless Aurora's on-disk open
           reference count pins them. *)
        if v.Vnode.nlink = 0 && v.Vnode.persistent_open = 0 then reclaim t v
        else begin
          v.Vnode.open_count <- 0;
          match t.backing with
          | None ->
            (* Pure RAM disk: contents are gone. *)
            Hashtbl.reset v.Vnode.chunks;
            Vnode.clear_dirty v;
            v.Vnode.size <- 0
          | Some dev ->
            (* Revert contents to what reached the device; size reverts
               to the inode state recorded by the last fsync. *)
            Hashtbl.reset v.Vnode.chunks;
            Vnode.clear_dirty v;
            Hashtbl.iter
              (fun (vid, ci) block ->
                if vid = v.Vnode.vid then
                  match Blockdev.read dev block with
                  | Blockdev.Data s ->
                    Hashtbl.replace v.Vnode.chunks ci (Bytes.of_string s)
                  | Blockdev.Seed _ | Blockdev.Zero -> ())
              t.block_map;
            v.Vnode.size <-
              Option.value ~default:0 (Hashtbl.find_opt t.durable_size v.Vnode.vid)
        end
      end
      else v.Vnode.open_count <- 0)
    (live_vnodes t)

let path_of_vid t vid =
  let rec search dir_vid prefix =
    match Hashtbl.find_opt t.dirents dir_vid with
    | None -> None
    | Some entries ->
      Hashtbl.fold
        (fun name child acc ->
          match acc with
          | Some _ -> acc
          | None ->
            let path = prefix ^ "/" ^ name in
            if child = vid then Some path
            else
              match vnode_by_id t child with
              | Some v when v.Vnode.vtype = Vnode.Dir -> search child path
              | _ -> None)
        entries None
  in
  if vid = t.root.Vnode.vid then Some "/" else search t.root.Vnode.vid ""
