open Aurora_simtime
open Aurora_posix
open Aurora_proc

type item = {
  peer_oid : int;  (* delivery target: the receiving endpoint *)
  data : string;
  sent_at : Duration.t;
  pgid : int;
  mutable release_at : Duration.t option; (* None until a checkpoint covers it *)
}

type t = {
  kernel : Kernel.t;
  groups : unit -> Types.pgroup list;
  mutable items : item list; (* oldest first *)
}

(* The process owning a descriptor over this object, if any. *)
let endpoint_owner' (k : Kernel.t) oid =
  List.find_opt
    (fun (p : Process.t) ->
      (not (Process.is_zombie p))
      && List.exists
           (fun (_, ofd) ->
             match ofd.Fd.kind with Fd.Obj o -> o = oid | Fd.Vnode_file _ -> false)
           (Fd.descriptors p.Process.fdtable))
    (Kernel.processes k)

let group_of t (p : Process.t) =
  List.find_opt (fun g -> Types.member t.kernel g p) (t.groups ())

(* Buffer when the sender is persisted and the peer is outside the
   sender's group (including peers owned by nobody — e.g. remote
   hosts). *)
let should_buffer t (src : Unixsock.t) =
  match endpoint_owner' t.kernel (Unixsock.oid src) with
  | None -> None
  | Some sender -> (
    match group_of t sender with
    | None -> None
    | Some g -> (
      match Unixsock.state src with
      | Unixsock.Connected { peer } -> (
        match endpoint_owner' t.kernel peer with
        | Some receiver when Types.member t.kernel g receiver -> None
        | Some _ | None -> Some g)
      | _ -> None))

let hook t ~src ~ofd ~data =
  ignore ofd;
  match should_buffer t src with
  | None -> `Deliver
  | Some g -> (
    match Unixsock.state src with
    | Unixsock.Connected { peer } ->
      t.items <-
        t.items
        @ [
            { peer_oid = peer; data; sent_at = Clock.now t.kernel.Kernel.clock;
              pgid = g.Types.pgid; release_at = None };
          ];
      `Buffered (String.length data)
    | _ -> `Deliver)

let handle t ~src ~ofd ~data = hook t ~src ~ofd ~data

let install kernel ~groups =
  let t = { kernel; groups; items = [] } in
  kernel.Kernel.send_hook <- Some (fun ~src ~ofd ~data -> hook t ~src ~ofd ~data);
  t

let uninstall t = t.kernel.Kernel.send_hook <- None

let on_checkpoint t (g : Types.pgroup) ~barrier ~durable_at =
  List.iter
    (fun item ->
      if
        item.pgid = g.Types.pgid && item.release_at = None
        && Duration.(item.sent_at <= barrier)
      then item.release_at <- Some durable_at)
    t.items

let release_due t =
  let now = Clock.now t.kernel.Kernel.clock in
  let due, rest =
    List.partition
      (fun item ->
        match item.release_at with
        | Some at -> Duration.(at <= now)
        | None -> false)
      t.items
  in
  t.items <- rest;
  let delivered = ref 0 in
  List.iter
    (fun item ->
      (* The data was already accepted by the kernel at send time, so
         delivery goes straight into the peer's inbox — even if the
         sending descriptor has since closed. A vanished peer means
         nobody can ever observe the bytes: dropped. *)
      match Kernel.lookup_stream t.kernel item.peer_oid with
      | None -> ()
      | Some peer ->
        if Unixsock.deliver peer item.data < String.length item.data then
          (* Inbox full: requeue the tail on the next tick. *)
          t.items <- t.items @ [ item ]
        else incr delivered)
    due;
  !delivered

let endpoint_owner = endpoint_owner'

let pending t = List.length t.items
