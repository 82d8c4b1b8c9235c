(** Shared SLS types: persistence groups, backends, breakdowns.

    A persistence group is the unit of transparent persistence (§3:
    "Aurora provides persistence for individual processes, process
    trees or containers"); it carries one or more attached backends —
    the paper's `sls attach` allows "attaching multiple backends at
    the same time". The first is the primary; every other backend, and
    the remote machine behind a hot standby
    ({!Machine.attach_standby}), takes the group's checkpoints through
    a {!Replica} session the machine keeps. *)

open Aurora_simtime
open Aurora_proc
open Aurora_objstore

type target = [ `Container of int | `Pids of int list ]

(** Stop-time breakdown of one checkpoint, mirroring Table 3's rows. *)
type ckpt_breakdown = {
  gen : Store.gen;
  mode : [ `Full | `Incremental ];
  quiesce : Duration.t;         (** parking the group's threads at the barrier *)
  metadata_copy : Duration.t;
  lazy_data_copy : Duration.t;  (** COW arming during the barrier *)
  stop_time : Duration.t;
  pages_captured : int;
  barrier_at : Duration.t;      (** when the barrier began *)
  durable_at : Duration.t;      (** absolute durability time on the primary *)
  mutable ship : Duration.t;
      (** the clock's advance while {!Machine.checkpoint_now} shipped
          the generation through the group's sessions (zero with none) *)
  status : [ `Ok | `Degraded of string ];
      (** [`Degraded reason]: the generation could not commit (device
          full or failed) and was aborted; [gen] was never durable and
          the group keeps serving from its last good checkpoint. *)
}

(** Restore-time breakdown, mirroring Table 4's rows. *)
type restore_breakdown = {
  objstore_read : Duration.t;
  memory_state : Duration.t;
  metadata_state : Duration.t;
  total_latency : Duration.t;
  pages_restored : int;   (** made resident eagerly *)
  pages_lazy : int;       (** left to fault from the image *)
}

type restore_policy =
  | Eager          (** bring every page in now *)
  | Lazy           (** map nothing; fault everything from the image *)
  | Lazy_prefetch  (** eagerly page in the checkpoint's hot set (§3's
                       clock-driven optimization), fault the rest *)

(** Who-caused-what accounting for one checkpoint. The invariant the
    whole provenance layer rests on: object rows partition the
    breakdown ([Σ a_pages = pages_captured], and likewise bytes), and
    process rows partition the object rows (each captured object is
    attributed to exactly one owner), so both views sum {e exactly} to
    the totals the engine reported. *)

type obj_attribution = {
  a_oid : int;            (** VM object id *)
  a_store_oid : int;      (** oid its pages live under in the store *)
  a_pages : int;          (** pages captured from this object *)
  a_bytes : int;          (** page payload + serialized object record *)
  a_metadata_bytes : int; (** serialized object record alone *)
  a_cow_breaks : int;     (** writes that raced the flush since last ckpt *)
  a_chain_depth : int;    (** shadow-chain depth walked at capture *)
  a_owner_pid : int option; (** owning process ([None]: kernel/shared) *)
}

type proc_attribution = {
  p_pid : int;            (** 0 stands for the kernel/shared row *)
  p_name : string;
  p_pages : int;
  p_bytes : int;
  p_metadata_bytes : int; (** proc record + owned object records *)
  p_cow_breaks : int;
  p_objects : int;        (** objects attributed to this process *)
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
      (** object stores on local devices; the first is the group's
          primary (restore source) *)
  mutable interval : Duration.t;        (** default 10 ms: "100x per second" *)
  mutable incremental : bool;
  mutable last_gen : Store.gen option;
  mutable next_ckpt_at : Duration.t;
  mutable last_breakdown : ckpt_breakdown option;
  mutable last_attribution : ckpt_attribution option;
  mutable log_counts : (int * int) list; (** cached log lengths, by store oid *)
}

type pending_ckpt = { pc_group : pgroup; pc_b : ckpt_breakdown }
(** One captured-but-not-yet-retired checkpoint epoch: committed, with
    its writes still draining toward [pc_b.durable_at]. The machine
    keeps these oldest-first, bounded by its in-flight window. *)

val make_pgroup : pgid:int -> target:target -> interval:Duration.t -> pgroup
val primary_store : pgroup -> Store.t option
val member : Kernel.t -> pgroup -> Process.t -> bool
val member_pids : Kernel.t -> pgroup -> int list
(** Live pids in the group, ascending (zombies excluded). *)

val top_objects : ?k:int -> ckpt_attribution -> obj_attribution list
(** Object rows by descending checkpoint cost (pages, then bytes),
    truncated to the top [k] (default: all). *)

val top_procs : ?k:int -> ckpt_attribution -> proc_attribution list
