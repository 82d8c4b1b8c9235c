(** The checkpoint engine.

    One call = one checkpoint of one persistence group:

    + {b Barrier} (the application is stopped — in the cooperative
      simulation, nothing else runs while this code does): copy all
      metadata into memory buffers ({!Serialize.snapshot_metadata})
      and arm copy-on-write over the pages to capture — everything
      resident for a full checkpoint, the object-level dirty sets for
      an incremental one. Both phases charge the clock; their durations
      are Table 3's "metadata copy" and "lazy data copy" rows, and
      their sum is the application stop time.
    + {b Background flush}: write records, pages and the file system
      into a new object-store generation and commit. This consumes
      device-timeline capacity but not application time (the
      orchestrator core does the work); the returned breakdown carries
      the absolute durability instant.

    The captured page frames stay referenced until the store has their
    contents, exactly like Aurora holding originals "while Aurora
    flushes the original page". *)

open Aurora_proc

val capture :
  Kernel.t ->
  Types.pgroup ->
  ?mode:[ `Full | `Incremental ] ->
  ?name:string ->
  ?flush_cls:Aurora_device.Iosched.cls ->
  unit ->
  Types.ckpt_breakdown
(** Barrier + background submission only: quiesce, serialize, arm COW,
    queue the generation's writes and commit. Returns as soon as the
    app can run again; the generation is committed but possibly not
    yet durable ([durable_at] is in the future). The caller owns
    calling {!finalize} once the clock passes [durable_at] — the
    machine keeps a bounded pipeline of such epochs in flight.
    [mode] defaults to the group's configured [incremental] flag.
    The file system is checkpointed with the group.
    [flush_cls] is the I/O class of the epoch's flush extents
    (default [Flush]; the machine promotes to [Deadline] when the
    pipeline window is full and the caller will quiesce on this
    epoch). Raises [Invalid_argument] when the group has no local
    backend. *)

val finalize : Kernel.t -> Types.pgroup -> Types.ckpt_breakdown -> unit
(** Completion continuation for one captured epoch: charges the retire
    cost, records the [ckpt.pipeline] flush span and the
    [ckpt.flush_us] / [ckpt.durable_lag_us] histograms. Call exactly
    once per [`Ok] capture, after the clock has reached its
    [durable_at]; degraded captures are a no-op. *)
