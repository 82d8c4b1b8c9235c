(** One machine's observability sinks, as one handle. The kernel owns
    it, and every layer that emits events is bound to the same value,
    so each event is emitted from one place into all the sinks it
    feeds. The recorder is persisted with every checkpoint generation. *)

type t = { metrics : Metrics.t; spans : Span.t; probes : Probe.t; recorder : Recorder.t }

val create : Clock.t -> t
