open Aurora_simtime
open Aurora_vfs

type kind =
  | Vnode_file of { vnode : Vnode.t; mutable append : bool }
  | Obj of int

type flags = {
  mutable cloexec : bool;
  mutable nonblock : bool;
  mutable ext_consistency : bool;
}

type ofd = {
  ofd_oid : int;
  mutable kind : kind;
  mutable offset : int;
  flags : flags;
  mutable refcount : int;
  role : [ `Plain | `Pipe_read | `Pipe_write ];
}

let make_ofd ~oid ?(role = `Plain) kind =
  { ofd_oid = oid; kind; offset = 0;
    flags = { cloexec = false; nonblock = false; ext_consistency = true };
    refcount = 1; role }

type table = { fds : (int, ofd) Hashtbl.t }

let create_table () = { fds = Hashtbl.create 16 }

let lowest_free t =
  let rec probe fd = if Hashtbl.mem t.fds fd then probe (fd + 1) else fd in
  probe 0

let install t ofd =
  let fd = lowest_free t in
  Hashtbl.replace t.fds fd ofd;
  fd

let install_at t fd ofd =
  if fd < 0 then invalid_arg "Fd.install_at: negative descriptor";
  if Hashtbl.mem t.fds fd then invalid_arg "Fd.install_at: descriptor occupied";
  Hashtbl.replace t.fds fd ofd

let get t fd = Hashtbl.find_opt t.fds fd

let descriptors t =
  Hashtbl.fold (fun fd ofd acc -> (fd, ofd) :: acc) t.fds []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let dup t fd =
  match get t fd with
  | None -> None
  | Some ofd ->
    ofd.refcount <- ofd.refcount + 1;
    Some (install t ofd)

let release t fd =
  match get t fd with
  | None -> `Bad_fd
  | Some ofd ->
    Hashtbl.remove t.fds fd;
    ofd.refcount <- ofd.refcount - 1;
    if ofd.refcount = 0 then `Last ofd else `Shared

let fork_table t =
  let child = create_table () in
  Hashtbl.iter
    (fun fd ofd ->
      if not ofd.flags.cloexec then begin
        ofd.refcount <- ofd.refcount + 1;
        Hashtbl.replace child.fds fd ofd
      end)
    t.fds;
  child

(* --- serialization ------------------------------------------------ *)

let w_kind w ~vid_of_vnode = function
  | Vnode_file { vnode; append } ->
    Serial.w_u8 w 0;
    Serial.w_int w (vid_of_vnode vnode);
    Serial.w_bool w append
  | Obj oid ->
    Serial.w_u8 w 1;
    Serial.w_int w oid

let r_kind r ~vnode_of_vid =
  match Serial.r_u8 r with
  | 0 ->
    let vid = Serial.r_int r in
    let append = Serial.r_bool r in
    Vnode_file { vnode = vnode_of_vid vid; append }
  | 1 -> Obj (Serial.r_int r)
  | v -> raise (Serial.Corrupt (Printf.sprintf "Fd: bad kind tag %d" v))

let w_role w = function
  | `Plain -> Serial.w_u8 w 0
  | `Pipe_read -> Serial.w_u8 w 1
  | `Pipe_write -> Serial.w_u8 w 2

let r_role r =
  match Serial.r_u8 r with
  | 0 -> `Plain
  | 1 -> `Pipe_read
  | 2 -> `Pipe_write
  | v -> raise (Serial.Corrupt (Printf.sprintf "Fd: bad role tag %d" v))

let w_ofd w ~vid_of_vnode ofd =
  Serial.w_int w ofd.ofd_oid;
  w_kind w ~vid_of_vnode ofd.kind;
  Serial.w_int w ofd.offset;
  Serial.w_bool w ofd.flags.cloexec;
  Serial.w_bool w ofd.flags.nonblock;
  Serial.w_bool w ofd.flags.ext_consistency;
  w_role w ofd.role

let r_ofd r ~vnode_of_vid =
  let ofd_oid = Serial.r_int r in
  let kind = r_kind r ~vnode_of_vid in
  let offset = Serial.r_int r in
  let cloexec = Serial.r_bool r in
  let nonblock = Serial.r_bool r in
  let ext_consistency = Serial.r_bool r in
  let role = r_role r in
  { ofd_oid; kind; offset; flags = { cloexec; nonblock; ext_consistency };
    refcount = 0; role }

let serialize_table t ~vid_of_vnode w =
  let descs = descriptors t in
  (* Each distinct description once, then the fd -> oid mapping. *)
  let seen = Hashtbl.create 8 in
  let distinct =
    List.filter
      (fun (_, ofd) ->
        if Hashtbl.mem seen ofd.ofd_oid then false
        else begin
          Hashtbl.replace seen ofd.ofd_oid ();
          true
        end)
      descs
  in
  Serial.w_list w (fun w (_, ofd) -> w_ofd w ~vid_of_vnode ofd) distinct;
  Serial.w_list w (fun w (fd, ofd) ->
      Serial.w_int w fd;
      Serial.w_int w ofd.ofd_oid)
    descs

let deserialize_table r ~vnode_of_vid ~shared =
  let distinct = Serial.r_list r (fun r -> r_ofd r ~vnode_of_vid) in
  List.iter
    (fun ofd ->
      if not (Hashtbl.mem shared ofd.ofd_oid) then Hashtbl.replace shared ofd.ofd_oid ofd)
    distinct;
  let mapping =
    Serial.r_list r (fun r ->
        let fd = Serial.r_int r in
        let oid = Serial.r_int r in
        (fd, oid))
  in
  let t = create_table () in
  List.iter
    (fun (fd, oid) ->
      match Hashtbl.find_opt shared oid with
      | None -> raise (Serial.Corrupt (Printf.sprintf "Fd: unresolved ofd oid %d" oid))
      | Some ofd ->
        ofd.refcount <- ofd.refcount + 1;
        Hashtbl.replace t.fds fd ofd)
    mapping;
  t
