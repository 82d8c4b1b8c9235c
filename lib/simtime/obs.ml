type t = { metrics : Metrics.t; spans : Span.t; probes : Probe.t; recorder : Recorder.t }

let create clock =
  { metrics = Metrics.create clock; spans = Span.create clock;
    probes = Probe.create (); recorder = Recorder.create clock }
