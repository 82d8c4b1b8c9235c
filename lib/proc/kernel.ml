open Aurora_simtime
open Aurora_vm
open Aurora_posix
open Aurora_vfs

type send_hook =
  src:Unixsock.t -> ofd:Fd.ofd -> data:string -> [ `Deliver | `Buffered of int ]

type sls_op =
  | Sls_ntflush of string
  | Sls_checkpoint
  | Sls_barrier
  | Sls_log_read
  | Sls_log_truncate
  | Sls_fdctl of int * bool
  | Sls_mctl of int * bool

type sls_result = Sls_time of Duration.t | Sls_log of string list

type t = {
  clock : Clock.t;
  pool : Frame.pool;
  registry : Registry.t;
  netstack : Netstack.t;
  mutable fs : Memfs.t;
  unix_ns : (string, int) Hashtbl.t;
  procs : (int, Process.t) Hashtbl.t;
  mutable next_pid : int;
  containers : (int, Container.t) Hashtbl.t;
  mutable next_cid : int;
  obs : Obs.t;
  prng : Prng.t;
  mutable send_hook : send_hook option;
  mutable sls_ops : (pid:int -> sls_op -> sls_result) option;
}

let create ?clock () =
  let clock = match clock with Some c -> c | None -> Clock.create () in
  let t =
    { clock; pool = Frame.create_pool (); registry = Registry.create ();
      netstack = Netstack.create (); fs = Memfs.create (); unix_ns = Hashtbl.create 8;
      procs = Hashtbl.create 16; next_pid = 1; containers = Hashtbl.create 4;
      next_cid = 1; obs = Obs.create clock; prng = Prng.create ~seed:0xA407AL;
      send_hook = None; sls_ops = None }
  in
  Hashtbl.replace t.containers 0 Container.host;
  t

let charge t d = Clock.advance t.clock d

let spawn t ?(container = 0) ?(parent = 0) ~name ~program () =
  if not (Hashtbl.mem t.containers container) then
    invalid_arg (Printf.sprintf "Kernel.spawn: no container %d" container);
  let pid = t.next_pid in
  t.next_pid <- t.next_pid + 1;
  let vm = Vmmap.create ~clock:t.clock ~pool:t.pool () in
  let p = Process.create ~pid ~ppid:parent ~name ~container ~vm ~program in
  Hashtbl.replace t.procs pid p;
  p

let proc t pid = Hashtbl.find_opt t.procs pid

let proc_exn t pid =
  match proc t pid with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Kernel: no process %d" pid)

let processes t =
  Hashtbl.fold (fun _ p acc -> p :: acc) t.procs []
  |> List.sort (fun a b -> Int.compare a.Process.pid b.Process.pid)

let container_procs t cid =
  List.filter (fun p -> p.Process.container = cid) (processes t)

let new_container t ~name =
  let cid = t.next_cid in
  t.next_cid <- t.next_cid + 1;
  let c = { Container.cid; name } in
  Hashtbl.replace t.containers cid c;
  c

let ensure_container t ~cid ~name =
  if not (Hashtbl.mem t.containers cid) then begin
    Hashtbl.replace t.containers cid { Container.cid; name };
    if cid >= t.next_cid then t.next_cid <- cid + 1
  end

let remove_proc t pid = Hashtbl.remove t.procs pid
let lookup_stream t oid = Registry.stream t.registry oid
