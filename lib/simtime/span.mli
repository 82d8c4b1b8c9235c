(** Typed spans: nested, sim-time-stamped intervals.

    A span records a named interval with a parent, so a checkpoint
    becomes a tree —
    [ckpt] containing [ckpt.quiesce], [ckpt.serialize],
    [ckpt.cow_mark], with the background [store.flush] hanging off the
    same root. The recorder keeps a stack of open spans; {!start}
    parents the new span to the top of the stack, and completed
    intervals recorded with {!record} (device transfers, batched
    reads) parent the same way.

    The whole tree exports as Chrome [trace_event] JSON
    ({!to_chrome_json}), loadable in Perfetto / [chrome://tracing]:
    each [track] becomes a named thread row. *)

type t

type span = {
  id : int;
  name : string;
  track : string;
  parent : int;                    (** id of the parent span, [-1] for roots *)
  start_at : Duration.t;
  mutable end_at : Duration.t;
  mutable closed : bool;
  mutable attrs : (string * string) list;
}

val create : Clock.t -> t
(** At most 262,144 spans are retained; once full, new spans are still
    timed and returned but not retained, and {!dropped} counts them. *)

val start : t -> ?track:string -> ?attrs:(string * string) list -> string -> span
(** Open a span at the clock's current instant, parented to the
    innermost open span. [track] defaults to ["cpu"]. *)

val finish : t -> ?attrs:(string * string) list -> span -> Duration.t
(** Close the span at the current instant and return its duration.
    Open descendants of the span that were never finished are closed
    at the same instant and counted by {!orphan_finishes}; finishing
    an already-closed span is also counted there (and is otherwise a
    no-op). [attrs] are appended. *)

val with_span : t -> ?track:string -> ?attrs:(string * string) list -> string ->
  (unit -> 'a) -> 'a
(** [start] / run / [finish], exception-safe. *)

val record : t -> ?track:string -> ?attrs:(string * string) list -> name:string ->
  start_at:Duration.t -> end_at:Duration.t -> unit -> unit
(** Record an already-completed interval (an async device transfer
    whose endpoints are known). Parented to the innermost open span at
    the time of the call. *)

val spans : t -> span list
(** Retained spans in start order. *)

val find : t -> name:string -> span option
(** First retained span with the name. *)

val find_all : t -> name:string -> span list
val roots : t -> span list
val children : t -> span -> span list
val duration : span -> Duration.t

val dropped : t -> int
val orphan_finishes : t -> int
val open_count : t -> int

val clear : t -> unit
(** Forget every retained span and reset the counters. Open spans are
    detached: finishing one later is counted as an orphan finish. *)

val to_chrome_json : t -> string
(** Chrome [trace_event] JSON (the ["traceEvents"] array form).
    Spans are complete ([ph:"X"]) events with microsecond timestamps;
    each distinct track maps to a tid with a [thread_name] metadata
    record. Still-open spans are emitted as ending at the clock's
    current instant. *)
