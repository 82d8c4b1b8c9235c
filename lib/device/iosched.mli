(** Priority-aware device I/O scheduling.

    Every submission to a {!Blockdev.t} carries a class:

    - [Foreground]: latency-sensitive reads — application store reads,
      fault-driven page-ins, restore prefetch.
    - [Flush]: checkpoint epoch extents — bulk, throughput-bound,
      deadline-free until the pipeline window fills.
    - [Background]: scrub, read-repair rewrites, replication export,
      out-of-band recorder traffic.
    - [Deadline]: barrier-bound writes — superblocks, generation
      tables, and epochs a quiescing caller is already waiting on.
      Never paced, and promoted into reserved slack like foreground.

    Two configurations:

    - [Fifo] reproduces the single [busy_until] queue bit-exactly:
      every submission starts at [max now (queue drain)] regardless of
      class. The default; all historical timing is unchanged.
    - [Wdrr] is a weighted deficit-round-robin dispatcher adapted to
      the analytic device model. Completion times must be final at
      submission (callers persist them as durability horizons), so
      priority cannot preempt retroactively. Instead, bulk classes are
      {e paced}: after every [quantum] of Flush/Background service the
      dispatcher reserves a gap of [quantum * fg_weight / class_weight]
      on the device timeline. Foreground and Deadline submissions fill
      the earliest reserved gap that fits (their latency is bounded by
      roughly one quantum instead of the whole queue depth); when no
      gap fits they fall back to the queue tail. Unused gaps expire as
      the clock passes them — the reservation is the bounded
      throughput tax the bulk classes pay for isolation
      ([fg_weight / class_weight], ~6% for Flush at the defaults).

    The scheduler state is plain data (no closures): devices are
    marshalled into CLI universe files. *)

open Aurora_simtime

type cls = Foreground | Flush | Background | Deadline

type config =
  | Fifo
  | Wdrr of {
      fg_weight : int;     (** reserved-slack numerator *)
      flush_weight : int;  (** pacing denominator for [Flush] *)
      bg_weight : int;     (** pacing denominator for [Background] *)
      quantum_us : float;  (** bulk service between reserved gaps *)
    }

val default_wdrr : config
(** [Wdrr { fg_weight = 1; flush_weight = 16; bg_weight = 4;
    quantum_us = 400. }]: Flush pays ~6.25% elongation and reserves a
    25 us foreground slot every 400 us of bulk service — enough for a
    couple of 4 KiB reads per gap at Optane latencies. *)

val cls_name : cls -> string
(** ["fg"] / ["flush"] / ["bg"] / ["deadline"] — the value of the
    [dev.io] probe's [cls] field and the [cls] span attribute. *)

type t

val create : config -> t
val config : t -> config

val horizon : t -> Duration.t
(** When the device queue drains — the scheduler's [busy_until]. *)

val schedule :
  ?not_before:Duration.t -> t -> now:Duration.t -> cls:cls ->
  cost:Duration.t -> blocks:int -> Duration.t * Duration.t
(** [(start, completion)] for one submission of [cost] device time.
    [not_before] delays the start past an absolute instant (the commit
    barrier). Under [Fifo], [start = max now not_before (horizon)] and
    the horizon advances to [completion] — the legacy arithmetic.
    Under [Wdrr], Foreground/Deadline gap-fill when possible (the
    horizon does not move), Flush/Background are paced (the horizon
    advances past the inserted gaps). Completion is final: it never
    changes after this call returns. *)

val extend : t -> Duration.t -> unit
(** Push the horizon out by a duration that was charged outside
    {!schedule} — controller-internal write retries. *)

val reset_to : t -> Duration.t -> unit
(** Crash/power-fail: the queue is gone. Horizon collapses to [now],
    reserved gaps and pacing credit are dropped. *)

type stats = {
  s_ops : int array;          (** scheduled submissions, per class *)
  s_blocks : int array;       (** blocks, per class *)
  s_service_us : float array; (** device time charged, per class *)
  s_fg_gap_fills : int;       (** Foreground/Deadline ops served from a gap *)
  s_fg_wait_us : float;       (** total Foreground/Deadline queue wait *)
  s_gaps_reserved_us : float; (** slack inserted by pacing *)
  s_gaps_used_us : float;     (** slack consumed by gap-fills *)
  s_gaps_expired_us : float;  (** slack the clock passed unused *)
}

val cls_index : cls -> int
(** Index into the per-class stats arrays: [Foreground]=0, [Flush]=1,
    [Background]=2, [Deadline]=3. *)

val stats : t -> stats
val zero_stats : stats
val add_stats : stats -> stats -> stats

val note_unscheduled : t -> cls:cls -> cost:Duration.t -> blocks:int -> unit
(** Account a submission that bypasses the queue (the out-of-band
    lane) under its class without scheduling it. *)
