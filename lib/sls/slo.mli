(** Service-level-objective watchdog for the checkpoint pipeline.

    Aurora's pitch is a bounded application stop time (§3: "the
    application only stops for the serialization phase") and fast
    restores; this module turns those promises into watched numbers.
    It keeps a bounded rolling window of stop-time and restore-latency
    samples per machine, compares each new sample against optional
    targets, and on a breach records a typed {!alert} carrying the
    offending group's top-k attribution rows — so the alert answers
    not just "the stop time blew the budget" but "and these processes
    / VM objects paid for it".

    With an {!Obs.t}, a breach is also pushed into every sink: a
    [slo.breach.stop_time] / [slo.breach.restore_latency] counter, an
    interval on the ["slo"] span track (next to the checkpoint that
    caused it in the Chrome trace), and an [slo.alert] recorder event.
    Targets are unset by default: an unconfigured watchdog only
    accumulates quantiles. *)

open Aurora_simtime

type kind = Stop_time | Restore_latency

type alert = {
  al_kind : kind;
  al_pgid : int;
  al_at : Duration.t;              (** sim-time instant of the breach *)
  al_observed_us : float;
  al_target_us : float;
  al_window_p99_us : float;        (** rolling p99 including this sample *)
  al_top_procs : Types.proc_attribution list;
  al_top_objects : Types.obj_attribution list;
      (** top-k rows of the attribution current at breach time;
          empty when the group has never been attributed (e.g. a
          restore before any checkpoint this boot). *)
}

type t

val create : unit -> t
(** The rolling sample windows hold the last 32 samples; at most 64
    alerts are retained (oldest dropped); an alert copies the top 3
    rows of each attribution kind. *)

val set_stop_target : t -> Duration.t option -> unit
val set_restore_target : t -> Duration.t option -> unit
(** [None] stops watching that objective (existing alerts are kept). *)

val stop_target : t -> Duration.t option

val observe :
  t -> ?obs:Obs.t -> kind -> pgid:int -> ?attribution:Types.ckpt_attribution ->
  now:Duration.t -> Duration.t -> alert option
(** Record one sample of [kind] (a checkpoint's stop time or a
    restore's total latency); returns the alert when the sample
    exceeds the target. [now] is the instant the sample ended (the
    breach interval [now - observed, now] is what lands on the ["slo"]
    span track). *)

val alerts : t -> alert list
(** Newest first, at most 64. *)

val breaches : t -> kind -> int
(** Total breaches observed (not bounded by the 64 retained). *)

val samples : t -> kind -> int
(** Samples currently in the rolling window (at most 32). *)

val quantile : t -> kind -> float -> float
(** [quantile t k p]: the [p]-th percentile ([0..100], nearest-rank)
    of the rolling window in microseconds; [nan] when empty. *)

val clear : t -> unit
(** Drop windows, alerts and breach counts (targets are kept). *)
