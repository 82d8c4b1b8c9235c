open Aurora_simtime

type kobj =
  | Kpipe of Pipe.t
  | Kusock of Unixsock.t
  | Ktcp of Unixsock.t
  | Kshm of Shm.t
  | Kmsgq of Msgq.t
  | Ksem of Semaphore.t
  | Kkq of Kqueue.t

let kobj_oid = function
  | Kpipe p -> Pipe.oid p
  | Kusock s | Ktcp s -> Unixsock.oid s
  | Kshm s -> Shm.oid s
  | Kmsgq q -> Msgq.oid q
  | Ksem s -> Semaphore.oid s
  | Kkq k -> Kqueue.oid k

let kobj_class = function
  | Kpipe _ -> "pipe"
  | Kusock _ -> "unix-socket"
  | Ktcp _ -> "tcp-socket"
  | Kshm _ -> "shared-memory"
  | Kmsgq _ -> "message-queue"
  | Ksem _ -> "semaphore"
  | Kkq _ -> "kqueue"

type t = { objs : (int, kobj) Hashtbl.t; oids : Oidgen.t }

let create () = { objs = Hashtbl.create 64; oids = Oidgen.create () }
let fresh_oid t = Oidgen.next t.oids

let register t kobj =
  let oid = kobj_oid kobj in
  if Hashtbl.mem t.objs oid then
    invalid_arg (Printf.sprintf "Registry.register: duplicate oid %d" oid);
  Oidgen.reserve_above t.oids oid;
  Hashtbl.replace t.objs oid kobj

let find t oid = Hashtbl.find_opt t.objs oid
let remove t oid = Hashtbl.remove t.objs oid
let count t = Hashtbl.length t.objs

let fold t ~init ~f =
  let oids = Hashtbl.fold (fun oid _ acc -> oid :: acc) t.objs [] in
  let oids = List.sort Int.compare oids in
  List.fold_left (fun acc oid -> f acc (Hashtbl.find t.objs oid)) init oids

let pipe t oid = match find t oid with Some (Kpipe p) -> Some p | _ -> None
let usock t oid = match find t oid with Some (Kusock s) -> Some s | _ -> None

let stream t oid =
  match find t oid with Some (Kusock s) | Some (Ktcp s) -> Some s | _ -> None

let shm t oid = match find t oid with Some (Kshm s) -> Some s | _ -> None
let msgq t oid = match find t oid with Some (Kmsgq q) -> Some q | _ -> None
let sem t oid = match find t oid with Some (Ksem s) -> Some s | _ -> None
let kq t oid = match find t oid with Some (Kkq k) -> Some k | _ -> None

let class_tag = function
  | Kpipe _ -> 0
  | Kusock _ -> 1
  | Ktcp _ -> 2
  | Kshm _ -> 3
  | Kmsgq _ -> 4
  | Ksem _ -> 5
  | Kkq _ -> 6

let serialize_kobj kobj w =
  Serial.w_u8 w (class_tag kobj);
  match kobj with
  | Kpipe p -> Pipe.serialize p w
  | Kusock s | Ktcp s -> Unixsock.serialize s w
  | Kshm s -> Shm.serialize s w
  | Kmsgq q -> Msgq.serialize q w
  | Ksem s -> Semaphore.serialize s w
  | Kkq k -> Kqueue.serialize k w

let deserialize_kobj r ~restore_obj =
  match Serial.r_u8 r with
  | 0 -> Kpipe (Pipe.deserialize r)
  | 1 -> Kusock (Unixsock.deserialize r)
  | 2 -> Ktcp (Unixsock.deserialize r)
  | 3 -> Kshm (Shm.deserialize r ~restore_obj)
  | 4 -> Kmsgq (Msgq.deserialize r)
  | 5 -> Ksem (Semaphore.deserialize r)
  | 6 -> Kkq (Kqueue.deserialize r)
  | v -> raise (Serial.Corrupt (Printf.sprintf "Registry: bad class tag %d" v))
