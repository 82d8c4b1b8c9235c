(** A simulated Aurora machine: kernel + devices + orchestrator.

    This is the top of the system diagram (Figure 1): the kernel with
    its POSIX object model, the storage devices (an Optane-class NVMe
    drive for the disk store and a DRAM region for memory-backed
    ephemeral checkpoints), the SLS orchestrator with its persistence
    groups and periodic checkpoint schedule, and the
    external-consistency buffer.

    {!run} advances simulated time: the scheduler executes programs,
    checkpoints fire on each group's interval (100x per second by
    default), buffered external output is released as checkpoints
    become durable, and old generations are garbage-collected past the
    configured history window. *)

open Aurora_simtime
open Aurora_device
open Aurora_proc
open Aurora_objstore

type t = {
  kernel : Kernel.t;
  nvme : Devarray.t;
  memdev : Devarray.t;
  disk_store : Store.t;
  mem_store : Store.t;
  mutable pgroups : Types.pgroup list;
  mutable next_pgid : int;
  extcons : Extconsist.t;
  mutable history_window : int;  (** generations kept on disk (plus named ones) *)
  mutable recorded : Types.pgroup list;  (** groups with input recording on *)
  mutable max_inflight_ckpts : int;
  (** Bound on captured-but-not-retired checkpoint epochs (default 2).
      1 = synchronous: every barrier waits for its own flush. k > 1
      pipelines: up to k-1 flushes drain under execution; a barrier
      that would exceed the window blocks on the oldest epoch and
      charges the wait to [ckpt.backpressure_us]. *)
  mutable pending_ckpts : Types.pending_ckpt list;
  (** Committed epochs whose writes are still draining, oldest first. *)
  mutable sessions : (int * Replica.t) list;
  (** Every {!Replica} session, with its group's pgid, in attach order:
      the backends beside a primary ({!attach}) and the hot standby. *)
  mutable standby : (int * Replica.t) option;
  (** The hot standby's entry of [sessions]. *)
  mutable next_sid : int;  (** number of this machine's next session *)
  mutable postmortem : postmortem option;
  (** What the previous incarnation left in flight — computed once at
      {!boot} by {!forensics}; read it through {!postmortem}. *)
}

(** The post-mortem: a reconstruction of "what was in flight when we
    died", computed at boot by diffing the recovered flight-recorder
    ring (stored with the last durable generation) and the store's
    black box against the committed prefix. *)
and postmortem = {
  pm_crash_reason : string option;
      (** Stamped by this boot when the black box names epochs beyond
          the committed prefix (["unclean shutdown: ..."]), or by
          {!failover} (["failover: ..."]); [None] after a clean
          shutdown. *)
  pm_recovered_gen : Store.gen option;
      (** The durable generation whose flight-recorder ring was
          reopened; [None] when no generation carried one. *)
  pm_bbox_at : Duration.t option;
      (** Instant the black box was last written — an upper bound on
          when the previous incarnation was still alive. *)
  pm_pending_epochs : Recorder.capture_mark list;
      (** Checkpoint epochs captured but never durable: committed by
          the dying machine, lost with the crash. Oldest first. *)
  pm_unacked_gens : Store.gen list;
      (** Generations a replication session had not seen acknowledged
          durable by the standby (empty when none was attached). *)
  pm_events : Recorder.event list;  (** the full recovered ring *)
}

val create :
  ?storage_profile:Profile.t ->
  ?stripes:int ->
  ?fs_with_disk:bool ->
  ?dedup:bool ->
  ?faults:Fault.plan ->
  ?storage_blocks:int ->
  ?max_inflight_ckpts:int ->
  ?io_sched:Iosched.config ->
  unit ->
  t
(** A fresh machine. [storage_profile] (default Optane 900P) is the
    disk store's device. [stripes] (default the profile's, normally 1)
    stripes the disk store over that many independent device queues —
    the paper's four-drive testbed. [fs_with_disk] (default false)
    gives the conventional file system its own backing device — used
    by the database baselines that fsync. [dedup] (default true)
    controls the object store's content deduplication (ablation
    bench). [faults] attaches a deterministic media-fault plan to the
    disk array; the disk store then formats with checksum verification
    and mirroring on. [storage_blocks] caps the disk array's logical
    capacity — checkpoints degrade (not crash) when it fills.
    [max_inflight_ckpts] (default 2) bounds the checkpoint pipeline —
    see the field above. [io_sched] (default {!Iosched.Fifo}) selects
    the disk array's I/O scheduler: [Wdrr _] paces checkpoint-flush
    and background traffic so foreground reads can slot into reserved
    gaps instead of queueing behind whole flush batches. *)

val clock : t -> Clock.t
val now : t -> Duration.t

val metrics : t -> Metrics.t
(** The machine-wide metrics registry (the kernel's). Devices, stores,
    checkpoint and restore all report into it. *)

val spans : t -> Span.t
(** The machine-wide span recorder: checkpoint/restore phase trees
    plus device-transfer and store-flush spans. Export with
    {!Span.to_chrome_json}. *)

val recorder : t -> Recorder.t
(** The machine's flight recorder (the kernel's). The checkpoint
    engine serializes it into every generation and keeps the store's
    black-box slot fresh; {!boot} rehydrates it from the last durable
    generation. *)

val postmortem : t -> postmortem option
(** The forensic reconstruction computed when this machine booted on
    existing storage: [None] on a freshly formatted machine or when
    neither a recorder ring nor a black box was recoverable. *)

val sync_metrics : t -> unit
(** Fold pull-style state — device/fault counters, store IO-repair and
    dedup/occupancy stats, span drop counts — into gauges in
    {!metrics}. Registered as a [Metrics.on_snapshot] hook at build
    time, so every snapshot/export already sees fresh values; calling
    it explicitly is only needed to refresh a gauge handle read
    directly via [Metrics.value]. *)

val last_attribution : Types.pgroup -> Types.ckpt_attribution option
(** The per-process / per-object cost attribution of the group's most
    recent committed checkpoint, if any. *)

(* --- persistence groups (the Table 1 CLI surface) ------------------- *)

val persist : t -> ?interval:Duration.t -> Types.target -> Types.pgroup
(** `sls persist`: register an application for transparent persistence
    (default interval 10 ms, incremental). The disk store is attached
    automatically as the primary backend. *)

val persist_unattached : t -> ?interval:Duration.t -> Types.target -> Types.pgroup
(** A group with no backends (attach explicitly). *)

val attach : t -> Types.pgroup -> Store.t -> unit
(** Append a backend store ([m.mem_store] for the memory backend). The
    first becomes the group's primary; a later one takes the group's
    checkpoints through a {!Replica} session over a lossless link with
    its device's profile, resuming from the group's imports it holds. *)

val detach : t -> Types.pgroup -> Store.t -> unit
(** Remove every attachment of the store and its session. Re-attaching
    resumes with a delta from the group's last import while that is
    still the store's newest generation, and ships the full image
    otherwise. *)

val checkpoint_now :
  t -> Types.pgroup -> ?mode:[ `Full | `Incremental ] -> ?name:string -> unit ->
  Types.ckpt_breakdown
(** `sls checkpoint`: barrier + capture to the group's primary, ship the
    generation through each of the group's sessions in attach order,
    and enqueue the epoch on the flush pipeline. Also stamps the
    external-consistency buffer. The ships run on the application's
    clock, reported as the breakdown's [ship] and one ["ckpt.ship"]
    span when the group has a session.
    Returns as soon as the in-flight window has room again (see
    [max_inflight_ckpts]); the returned breakdown's [durable_at] may
    be in the future. Epochs that already landed are retired first —
    finalizing their spans/histograms and garbage-collecting
    history. *)

val complete_due : t -> unit
(** Retire every in-flight epoch whose durability time the clock has
    passed (oldest first). {!run}, {!checkpoint_now} and
    {!drain_storage} call this themselves; exposed for fixtures that
    drive the clock manually. *)

val run : t -> Duration.t -> unit
(** Advance the machine by a span of simulated time. *)

val run_until_idle : t -> unit
(** Run until no thread can progress and all checkpoint work is
    quiesced (at most one more periodic checkpoint per group). *)

val restore_group :
  t -> Types.pgroup -> ?gen:Store.gen -> ?policy:Types.restore_policy ->
  ?from:Store.t -> unit -> int list * Types.restore_breakdown
(** `sls restore`: (re)create the group's processes from a checkpoint
    in the store [from] (default: the group's primary backend), at
    [gen] (default: that store's latest generation). Existing member
    processes are killed first. *)

val clone_group :
  t -> Types.pgroup -> ?gen:Store.gen -> ?policy:Types.restore_policy -> unit ->
  int list * Types.restore_breakdown
(** Serverless scale-out: restore another instance of the image with
    fresh pids, alongside the running one. *)

val ps : t -> (int * string * int * string) list
(** `sls ps`: (pid, name, container, state). *)

val enable_sls_calls : t -> unit
(** Install the libsls syscall bridge so simulated programs can invoke
    [Syscall.sls] (ntflush, manual checkpoints, barriers, log
    replay). *)

val enable_recording : t -> Types.pgroup -> unit
(** Record/replay integration (§4): journal every byte entering the
    group from outside before delivery. Checkpoints truncate the
    journal ("only keeping the records since the last checkpoint"). *)

val rollback_and_replay : t -> Types.pgroup -> int list * int
(** Roll the group back to its last checkpoint and re-deliver the
    journaled inputs into the restored endpoints: the §4 failure
    workflow ("witness the last seconds before a crash"). Returns the
    restored pids and the number of inputs replayed. The caller runs
    the scheduler to watch the re-execution. *)

(* --- replication ---------------------------------------------------- *)

val attach_standby :
  t ->
  ?faults:Netlink.fault_plan ->
  ?ack_timeout:Duration.t ->
  ?max_attempts:int ->
  ?standby_dev:Devarray.t ->
  Types.pgroup ->
  Replica.t
(** Attach a hot standby for the group: a fresh single-stripe device
    array (same storage profile as the primary) behind a {!Netlink}
    link (10 GbE profile) carrying the optional [faults] plan, and a
    {!Replica} session through it, the one that reports to the
    machine's [repl.*] metrics, flight recorder and black box. Every
    subsequent committed checkpoint of the group ships through it (see
    {!checkpoint_now}). [standby_dev] re-attaches an existing standby
    device instead — after a primary crash and {!recover}, the new
    session resumes from the replication state recorded durably on the
    standby. Raises [Invalid_argument] when a standby is already
    attached. *)

val detach_standby : t -> unit
(** Stop auto-shipping; the session and its store are abandoned. *)

type failover_report = {
  fo_rpo : int;
      (** RPO: committed primary generations the standby never
          acknowledged durable — what this primary loss costs. *)
  fo_promoted_gen : Store.gen option;
      (** The standby generation (standby numbering) the promoted
          machine resumes from. *)
}

val failover : t -> t * failover_report
(** Promote the standby: boot a fresh machine on the standby's device
    (its store recovers to the committed, integrity-verified prefix it
    acknowledged) and report the RPO. The old machine stops shipping;
    call {!restore_group} on the promoted machine to resurrect the
    applications. Raises [Invalid_argument] when no standby is
    attached. *)

(* --- failure -------------------------------------------------------- *)

val crash : t -> unit
(** Power failure: volatile device caches and all kernel state are
    lost. The machine object must not be used afterwards except as the
    argument of {!recover}. *)

val boot :
  ?max_inflight_ckpts:int -> nvme:Devarray.t -> unit -> (t, Store.error) result
(** Boot a fresh machine on an existing storage device (recover its
    object store; restore the file system from the latest generation
    when one exists). The CLI uses this to resume a universe whose
    only surviving state is the disk. [Error] is the store's typed
    recovery failure (no superblock, unreadable generation table,
    ...). *)

val recover : t -> t
(** Boot a new machine on the survivors: same clock (wall time moves
    on), same storage devices; the object store is re-opened from its
    superblocks and the file system restored from the latest
    generation. Persistence groups are re-registered (empty: call
    {!restore_group} to resurrect applications). *)

val drain_storage : t -> unit
(** Advance the clock (without scheduling applications) until every
    in-flight checkpoint epoch is retired and both stores' pipelines
    are durable. Crash-test fixtures use this to define "the store
    caught up". Unlike the device queues' [busy_until], unrelated raw
    device traffic does not gate this. *)

val critical_path : ?gen:int -> t -> (Critpath.report, string) result
(** {!Critpath.analyze} over this machine's span recorder (default:
    the newest finalized generation), augmented with a [mirror_writes]
    antagonist estimated from the generation's provenance (mirror
    blocks through the device profile's write cost — mirror traffic
    rides inside the commit's own transfers, so the span tree cannot
    see it separately). The report is also published as the
    [ckpt.critpath.*] metrics family. *)
