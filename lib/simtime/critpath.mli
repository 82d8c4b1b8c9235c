(** Checkpoint critical-path extraction over the span tree.

    One committed checkpoint generation leaves a dependency chain in
    the span recorder: the [ckpt] root with its barrier children
    ([ckpt.quiesce] → [ckpt.serialize] → [ckpt.cow_mark]), the
    background-flush window ([ckpt.flush] on the [ckpt.pipeline]
    track, opened by the pipeline when the epoch retires), the
    store-side commit ([store.flush]) and the per-stripe device
    transfers ([dev.write] on per-device tracks, ordered by the
    commit's completion group, with the superblock write last).

    {!analyze} walks that chain for one generation and splits the
    interval from barrier entry to superblock durability into
    contiguous blame segments:

    - [quiesce] / [serialize] / [cow_mark] — the stop window; their
      sum is the epoch's measured stop time (the bench gates the match
      at 1%),
    - [prep] — barrier exit to commit entry (recorder-ring
      serialization and put queuing),
    - [flush.<dev>] — commit entry to the superblock write, blamed on
      the binding stripe (the device whose completion-group horizon
      gated the superblock's [not_before]),
    - [superblock] — the ordered superblock write itself.

    Segments are contiguous by construction, so blame percentages sum
    to 100 exactly. Alongside the chain, overlapping {e antagonists}
    are measured (work that shares the window without being on the
    chain): backpressure waits ([ckpt.backpressure]), recorder tax
    ([ckpt.recorder]), replication shipping ([repl.ship]),
    out-of-band black-box writes ([dev.oob]) and competing device
    traffic by I/O class. Mirror-write amplification rides inside the
    commit's own transfers, so the span tree cannot see it;
    [Machine.critical_path] adds that estimate from the
    generation's provenance. *)

type segment = {
  sg_name : string;      (** quiesce, serialize, cow_mark, prep, flush.<dev>, superblock *)
  sg_track : string;     (** span track the blame lands on *)
  sg_start : Duration.t;
  sg_end : Duration.t;
  sg_us : float;
  sg_pct : float;        (** of barrier entry → durability *)
}

type antagonist = { an_name : string; an_us : float }

type report = {
  cp_gen : int;
  cp_pgid : int;
  cp_barrier_at : Duration.t;
  cp_durable_at : Duration.t;
  cp_stop_us : float;    (** sum of the three barrier segments *)
  cp_total_us : float;   (** barrier entry → durability *)
  cp_segments : segment list;      (** in chain order *)
  cp_antagonists : antagonist list; (** sorted, largest first *)
}

val analyze : Span.t -> ?gen:int -> unit -> (report, string) result
(** Analyze generation [gen] (default: the newest generation with a
    finalized flush span). Errors are human-readable: no checkpoint
    spans, unknown generation, or a generation whose flush never
    finalized. *)

val top_antagonist : report -> antagonist option

val publish : Metrics.t -> report -> unit
(** Export the report as the [ckpt.critpath.*] metrics family:
    per-segment [ckpt.critpath.<name>_pct] gauges,
    [ckpt.critpath.stop_us] / [.total_us] / [.gen] gauges,
    per-antagonist [ckpt.critpath.antagonist.<name>_us] gauges, an
    [.analyses] counter and a [ckpt.critpath.top.<antagonist>]
    counter naming the current top antagonist. *)

val render : report -> string
val to_json : report -> string
