(** Sample accumulators for simulated-time measurements.

    Used by the benchmark harness and by subsystem metrics to report
    counts, means and tail percentiles of durations or raw values. *)

type t

val create : unit -> t
val add : t -> float -> unit
val add_duration : t -> Duration.t -> unit
(** Records the duration in microseconds. *)

val count : t -> int
val mean : t -> float
(** [nan] when empty. *)

val min_value : t -> float
val max_value : t -> float

val percentile : t -> float -> float
(** [percentile t p] for [p] in [0,100], nearest-rank on the sorted
    sample. [nan] when empty. Raises [Invalid_argument] for [p] outside
    [0,100]. *)

val median : t -> float
val pp_summary : Format.formatter -> t -> unit
(** One-line [n/mean/p50/p99/max] summary. *)
