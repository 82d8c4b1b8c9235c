(** Simulated block storage device.

    A block device stores fixed-size (4 KiB) blocks of opaque content
    behind a {!Profile.t} performance model. Writes land in the device
    write cache and become durable only after {!flush} (immediately, if
    the profile's cache is power-loss protected). {!crash} reverts every
    non-durable block — this is what the crash-consistency tests lean
    on.

    Two submission modes mirror how Aurora uses storage:
    - synchronous ([read]/[write]/[flush]) advance the simulated clock
      to command completion, and
    - asynchronous ([write_sorted]) queue work on the device timeline
      and return the absolute completion time without blocking the
      caller — this models the orchestrator flushing checkpoints "in
      the background concurrently with application execution". *)

open Aurora_simtime

val block_size : int
(** 4096 bytes. *)

type content =
  | Data of string     (** serialized metadata; length <= [block_size] *)
  | Seed of int64      (** a page payload, identified by its content seed *)
  | Zero

type t

val create :
  ?sched:Iosched.config -> ?capacity_blocks:int -> ?faults:Fault.injector ->
  clock:Clock.t -> profile:Profile.t -> string -> t
(** [create ~clock ~profile name]. [sched] selects the I/O scheduler
    ({!Iosched.Fifo} by default — the historical single-queue timing,
    bit-exact). [capacity_blocks] defaults to unlimited; when set,
    writes past the capacity raise [Invalid_argument]. [faults]
    attaches a media-fault injector (default: a perfect device). *)

val set_obs : t -> Obs.t option -> unit
(** Bind the instrumentation ([None] detaches it; a machine booted on
    an existing device rebinds it to the new kernel's sinks). Binding
    registers per-device counters ([dev.<name>.commands],
    [.blocks_read], [.blocks_written]) and a transfer-duration
    histogram ([dev.<name>.xfer_us]); queued transfers become spans
    ([dev.read] / [dev.write] / [dev.oob], with a [cls] attribute) on a
    track named after the device; every command fires the [dev.io]
    tracepoint ([op] read/write/oob, [cls] fg/flush/bg/deadline). *)

val profile : t -> Profile.t
val clock : t -> Clock.t

val capacity_blocks : t -> int option
(** The configured capacity; [None] means unbounded. *)

val faults : t -> Fault.injector option
val set_faults : t -> Fault.injector option -> unit

val read : ?cls:Iosched.cls -> t -> int -> content
(** Synchronous single-block read; charges the clock. [cls] defaults
    to [Foreground]. Unwritten blocks read as [Zero]. Raises
    [Invalid_argument] on negative index. Under a fault injector,
    raises {!Fault.Io_error} — the command's time is charged either
    way — for a dropped device, an injected transient error, or a
    latent sector. *)

val queue_batch_read : ?cls:Iosched.cls -> t -> blocks:int -> Duration.t
(** Queue one read command of [blocks] blocks (latency charged once,
    bandwidth per block) and return its absolute completion time
    {e without} advancing the clock. The device array issues one per
    device at the same simulated instant and then waits for the
    slowest. With [blocks = 0] nothing is queued. *)

val batch_content : t -> int -> content
(** What a batched read delivers for one block, charging nothing by
    itself. Batch reads are best-effort: blocks on latent sectors (or
    a dropped device) come back [Zero] instead of failing the
    transfer — callers that need certainty verify checksums and
    re-issue single reads. *)

val peek : t -> int -> content
(** Read without charging the clock or the stats counters. For
    simulator-internal use only: precomputing what a future fault will
    return, where the fault itself charges the read cost (lazy
    restore), or assertions in tests. *)

val write : ?cls:Iosched.cls -> t -> int -> content -> unit
(** Synchronous write into the device cache; charges the clock. [cls]
    defaults to [Foreground]. The block is durable only after {!flush}
    (or immediately when the profile has a non-volatile cache).

    Under a fault injector: transient write errors are retried by the
    controller with exponential backoff (the extra time is charged to
    the transfer; exhausting the bounded retries raises
    {!Fault.Io_error}), a completed write clears any latent error on
    its sector, and the payload may be silently corrupted. A dropped
    device raises. These semantics apply to every write entry point
    below as well. *)

val write_many : ?cls:Iosched.cls -> t -> int array -> content array -> unit
(** [write_many t blocks contents]: {!write} of block [blocks.(i)] taking
    [contents.(i)], as one command, in column order. *)

val write_sorted :
  ?not_before:Duration.t -> ?cls:Iosched.cls -> t -> int array -> content array ->
  Duration.t
(** [write_sorted t blocks contents]: queue one submission on the
    device timeline, block [blocks.(i)] taking [contents.(i)], for
    blocks in ascending order (a repeated block keeps its last
    content). Each run of blocks, each at most one past the one before,
    is charged as its own transfer (latency per run, bandwidth per
    block); all complete together at the returned absolute time (and,
    for non-volatile caches, become durable). Does not advance the
    clock. [cls] defaults to [Flush] — checkpoint extents are the
    dominant async traffic. [not_before] delays the start past the
    given absolute time even if the queue drains earlier — the commit
    barrier: a superblock write ordered after in-flight data on
    {e other} devices of an array. The device keeps both columns as the
    in-flight batch, and a silently corrupted write replaces its slot
    of [contents]. Raises [Invalid_argument] if the columns' lengths
    differ or the blocks descend anywhere. *)

val write_oob : t -> int array -> content array -> Duration.t
(** A small control write, as columns like {!write_sorted}'s, on a
    dedicated submission queue: completion is charged from {e now}
    rather than behind queued data transfers (a separate NVMe queue
    pair), so it can become durable while an earlier, larger submission
    is still draining. Used for the store's black-box slot. Crash and
    durability semantics match {!write_sorted}; [busy_until] is not
    extended. Accounted to the [Background] class without being
    scheduled. *)

val await : t -> Duration.t -> unit
(** Advance the clock to the given absolute completion time if it is in
    the future — i.e. block on an async write. *)

val settle : t -> unit
(** Mark async batches whose completion time has passed durable
    (non-volatile caches) without advancing the clock. {!await} and
    {!crash} call this implicitly; a device array calls it after
    advancing the shared clock itself. *)

val busy_until : t -> Duration.t
(** The absolute time at which the device's queue drains. *)

val flush : t -> unit
(** Durability barrier: waits for queued writes, pays the profile's
    flush latency, marks all completed writes durable. *)

val crash : t -> unit
(** Power failure: every block whose latest write was not durable
    reverts to its last durable content. Async batches whose
    completion time already passed in simulated time did finish and
    survive (on non-volatile caches); still-queued batches are
    dropped. *)

(** Operation counters, for bandwidth/volume reporting in benches. *)
type stats = {
  reads : int;          (** read commands *)
  writes : int;         (** write commands *)
  blocks_read : int;
  blocks_written : int;
  flushes : int;
}

val stats : t -> stats

(** Per-class scheduler accounting (ops, blocks, service time, gap
    reservation/fill/expiry). *)
val sched_stats : t -> Iosched.stats

val reset_stats : t -> unit
val used_blocks : t -> int
(** Number of distinct blocks ever written and still holding content. *)
