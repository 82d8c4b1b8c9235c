(** Named counters, gauges, and fixed-bucket histograms.

    One registry per simulated machine (owned by the kernel). Metric
    handles are found-or-created by name; looking a name up again
    returns the same handle, so instrumentation points can be written
    as [Metrics.incr (Metrics.counter m "dev.nvme.reads")] without
    threading handles around. The hot-path operations ({!incr},
    {!add}, {!set}, {!observe}) allocate nothing.

    Values are sim-time-stamped at snapshot time: {!snapshot} and
    {!to_json} record the registry clock's current instant, not wall
    time. *)

type t
type counter
type gauge
type histogram

val create : Clock.t -> t

val on_snapshot : t -> (unit -> unit) -> unit
(** Register a pre-export hook. Hooks run (in registration order) at
    the start of every {!snapshot}, {!find}, and {!to_json} call, so a
    subsystem whose gauges are derived from live state can refresh
    them lazily and exported values are never stale. Re-entrant
    exports from inside a hook skip the hook pass rather than
    recursing. *)

(* --- registration (find-or-create) ---------------------------------- *)

val counter : t -> string -> counter
(** Find or create the counter named [name]. Raises [Invalid_argument]
    if the name is already registered as a different metric kind. *)

val gauge : t -> string -> gauge

val histogram : t -> string -> histogram
(** Every histogram has the same inclusive upper bucket edges, 1-2-5
    per decade from 1 us to 1 s (1, 2, 5, 10, ..., 500,000, 1,000,000),
    suited to phase durations; an implicit overflow bucket catches
    everything above the last edge. *)

(* --- hot path -------------------------------------------------------- *)

val incr : counter -> unit
val add : counter -> int -> unit
(** Raises [Invalid_argument] on a negative increment: counters are
    monotone. *)

val count : counter -> int

val set : gauge -> float -> unit
val set_int : gauge -> int -> unit
val value : gauge -> float

val observe : histogram -> float -> unit
(** Record one sample. A sample lands in the first bucket whose upper
    edge is >= the value; values above every edge land in the
    overflow bucket. *)

val observe_duration : histogram -> Duration.t -> unit
(** {!observe} of the duration in microseconds (the unit every
    [*_us] histogram in the tree uses). *)

val hist_count : histogram -> int
val hist_sum : histogram -> float
val hist_mean : histogram -> float
(** [nan] when empty. *)

val bucket_counts : histogram -> (float * int) list
(** Per-bucket (not cumulative) counts as [(upper_edge, count)]; the
    overflow bucket's edge is [infinity]. *)

val quantile : histogram -> float -> float
(** [quantile h q] estimates the [q]-quantile ([0 <= q <= 1]) by
    linear interpolation within the bucket holding the target rank.
    Ranks landing in the overflow bucket report the largest observed
    sample (not the last finite edge), and every estimate is clamped
    to that observed maximum. [nan] when the histogram is empty. *)

(* --- snapshot / export ----------------------------------------------- *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      bounds : float array;
      counts : int array;  (** length = [Array.length bounds + 1] (overflow last) *)
      count : int;
      sum : float;
      max_seen : float;    (** largest observed sample; [nan] when empty *)
    }

val snapshot : t -> (string * value) list
(** Registration order. *)

val find : t -> string -> value option

val to_json : t -> string
(** The snapshot as a JSON object:
    [{"at_us": <now>, "metrics": {<name>: {...}, ...}}].
    Histograms include count/sum/mean/p50/p95/p99 and the bucket
    array. Printed by {!Json}: floats at full precision, non-finite
    ones as [null]. *)
