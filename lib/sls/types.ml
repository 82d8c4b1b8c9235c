open Aurora_simtime
open Aurora_proc
open Aurora_objstore

type target = [ `Container of int | `Pids of int list ]

type ckpt_breakdown = {
  gen : Store.gen;
  mode : [ `Full | `Incremental ];
  quiesce : Duration.t;
  metadata_copy : Duration.t;
  lazy_data_copy : Duration.t;
  stop_time : Duration.t;
  pages_captured : int;
  barrier_at : Duration.t;
  durable_at : Duration.t;
  mutable ship : Duration.t;
  status : [ `Ok | `Degraded of string ];
  (* [`Degraded reason]: the generation could not commit (device full
     or failed) and was aborted; the group keeps running on its last
     good checkpoint. *)
}

type restore_breakdown = {
  objstore_read : Duration.t;
  memory_state : Duration.t;
  metadata_state : Duration.t;
  total_latency : Duration.t;
  pages_restored : int;
  pages_lazy : int;
}

type restore_policy = Eager | Lazy | Lazy_prefetch

type obj_attribution = {
  a_oid : int;
  a_store_oid : int;
  a_pages : int;
  a_bytes : int;
  a_metadata_bytes : int;
  a_cow_breaks : int;
  a_chain_depth : int;
  a_owner_pid : int option;
}

type proc_attribution = {
  p_pid : int;
  p_name : string;
  p_pages : int;
  p_bytes : int;
  p_metadata_bytes : int;
  p_cow_breaks : int;
  p_objects : int;
}

type ckpt_attribution = {
  at_gen : Store.gen;
  at_pages_total : int;
  at_bytes_total : int;
  at_metadata_bytes_total : int;
  at_objects : obj_attribution list;
  at_procs : proc_attribution list;
}

type pgroup = {
  pgid : int;
  mutable target : target;
  mutable backends : Store.t list;
  mutable interval : Duration.t;
  mutable incremental : bool;
  mutable last_gen : Store.gen option;
  mutable next_ckpt_at : Duration.t;
  mutable last_breakdown : ckpt_breakdown option;
  mutable last_attribution : ckpt_attribution option;
  mutable log_counts : (int * int) list;
}

(* One captured-but-not-yet-retired checkpoint epoch: the breakdown of
   a generation whose writes are still draining on the device array.
   The machine keeps these oldest-first, bounded by its in-flight
   window. *)
type pending_ckpt = { pc_group : pgroup; pc_b : ckpt_breakdown }

let make_pgroup ~pgid ~target ~interval =
  { pgid; target; backends = []; interval; incremental = true;
    last_gen = None; next_ckpt_at = interval; last_breakdown = None;
    last_attribution = None; log_counts = [] }

let primary_store g =
  match g.backends with s :: _ -> Some s | [] -> None

let member kernel g (p : Process.t) =
  ignore kernel;
  match g.target with
  | `Container cid -> p.Process.container = cid
  | `Pids pids -> List.mem p.Process.pid pids

let member_pids kernel g =
  Kernel.processes kernel
  |> List.filter (fun p -> member kernel g p && not (Process.is_zombie p))
  |> List.map (fun p -> p.Process.pid)

(* Attribution rows ordered by checkpoint cost: pages captured, then
   bytes, then id for determinism. *)
let top_objects ?(k = max_int) a =
  let cmp (x : obj_attribution) (y : obj_attribution) =
    match Int.compare y.a_pages x.a_pages with
    | 0 -> (
      match Int.compare y.a_bytes x.a_bytes with
      | 0 -> Int.compare x.a_oid y.a_oid
      | c -> c)
    | c -> c
  in
  List.filteri (fun i _ -> i < k) (List.sort cmp a.at_objects)

let top_procs ?(k = max_int) a =
  let cmp (x : proc_attribution) (y : proc_attribution) =
    match Int.compare y.p_pages x.p_pages with
    | 0 -> (
      match Int.compare y.p_bytes x.p_bytes with
      | 0 -> Int.compare x.p_pid y.p_pid
      | c -> c)
    | c -> c
  in
  List.filteri (fun i _ -> i < k) (List.sort cmp a.at_procs)
