(** Checkpoint replication into another store, over a link: the one
    path that carries {!Sendrecv} images from a group's primary to any
    other store. A backend beside the primary takes its checkpoints
    through a session over a lossless local link, the hot standby
    through one over a network link that may be faulty.

    A session exchanges framed, checksummed, sequence-numbered messages
    with explicit ACK/NAK. The primary streams delta exports against
    the last {e acked} generation, retransmits on timeout with
    exponential backoff plus jitter (all charged to simulated time),
    and falls back to a full resync from the last common generation
    after a gap (the base was garbage-collected) or a NAK. The
    destination imports only integrity-verified images — a frame whose
    CRC fails is dropped, an image whose checksum fails is rejected
    with a NAK and the open generation aborted — and ACKs
    {e durability}, not arrival. It takes a delta only while its newest
    generation is this session's import of the delta's base (an import
    builds on the newest generation); otherwise it NAKs with no base.
    Once it has ACKed an import it collects the group's older ones
    ({!Store.gc}): the newest is the only delta base and what failover
    and restore read.

    The destination names each import, durably,
    ["repl.gen:<pgid>/<primary gen>@<corr>"]. A session re-established
    over an existing store (after either end crashed, or a backend was
    detached and attached again) recovers its group's mapping from
    those names and resumes with deltas instead of starting over. *)

open Aurora_simtime
open Aurora_device
open Aurora_objstore

type t

exception Session_failed of string
(** Raised by the CLI-facing helpers when a session cannot make
    progress (e.g. the link never delivers within the retry budget). *)

type stats = {
  acked : int;             (** ships acknowledged durable by the standby *)
  retransmits : int;       (** timeout-driven re-sends *)
  resyncs : int;           (** full-image fallbacks after a gap or NAK *)
  duplicate_frames : int;  (** data frames the standby had already applied *)
  corrupt_rejects : int;   (** frames or images that failed integrity *)
  torn_imports : int;      (** imports aborted by standby media failure *)
  gave_up : int;           (** ships abandoned after the retry budget *)
  full_images : int;
  delta_images : int;
  wire_bytes : int;        (** frame bytes offered, retransmits included *)
}

val establish :
  ?ack_timeout:Duration.t ->
  ?max_attempts:int ->
  ?obs:Obs.t ->
  sid:int ->
  pgid:int ->
  link:Netlink.t ->
  primary_side:Netlink.side ->
  primary:Store.t ->
  standby:Store.t ->
  unit ->
  t
(** Open a session that ships group [pgid]'s generations. [sid]
    numbers it: it fences other sessions' frames, names the
    correlation ids and seeds the retransmission jitter. [ack_timeout]
    (default 5 ms) is the initial retransmission timeout; it doubles
    per retry (plus deterministic jitter) up to 40 ms; [max_attempts]
    (default 10) bounds transmissions of one frame. The destination's
    names for [pgid] are recovered, so the session resumes where a
    predecessor stopped; another group's names are ignored.
    [obs] attaches the instrumentation: the [repl.*] counters, the
    ack-RTT histogram and lag gauge, the ["repl"] span track, the
    flight recorder's ship/ack entries, and the [repl.msg] tracepoint
    (fired per frame sent — op [data]/[ack]/[nak] with the wire size
    in [blocks] — and once per completed ship with op [ship] and the
    RTT in [us]).

    A destination carrying acknowledgements for generations the
    primary no longer holds is {e ahead} of it (the primary recovered
    to an older committed prefix; generation numbers past it may be
    reused with different content): such torn session state is
    quarantined — the store is reformatted and the session resyncs in
    full. *)

type ship_report = {
  sh_gen : Store.gen;                          (** primary generation shipped *)
  sh_outcome : [ `Acked | `Gave_up | `Skipped ];
  sh_mode : [ `Delta of Store.gen | `Full ];
  sh_attempts : int;                           (** transmissions, first included *)
  sh_rtt : Duration.t;                         (** first send to durable ACK *)
  sh_bytes : int;                              (** image payload bytes *)
}

val ship : t -> gen:Store.gen -> ship_report
(** Drive one generation of the session's group: export (delta against the
    last acked generation when possible), frame, send, and pump both
    ends of the link — importing, acking and retransmitting as the
    simulated clock advances — until the standby acknowledges
    durability or the retry budget runs out. [`Gave_up] leaves the
    session [`Degraded]; a later ship (e.g. after a partition heals)
    resynchronizes. A ship that transmitted logs its span and its
    flight-recorder ship/ack events (and ack horizon) itself. *)

val ship_exn : t -> gen:Store.gen -> ship_report
(** {!ship}, raising {!Session_failed} on [`Gave_up]. *)

val state : t -> [ `Idle | `Degraded ]
(** [`Degraded] after a gave-up ship, until an ACK next lands. *)

val lag : t -> int
(** Replication lag: committed primary generations newer than the last
    acked one (every committed generation when nothing was ever
    acked). *)

val acked_gen : t -> Store.gen option
(** The last primary generation the standby acknowledged durable. *)

val standby_latest : t -> (Store.gen * Store.gen) option
(** Newest replicated pair [(primary gen, standby gen)], if any. *)

val mapping : t -> (Store.gen * Store.gen) list
(** The replicated pairs the destination holds, ascending. *)

val stats : t -> stats
val link : t -> Netlink.t
val standby_store : t -> Store.t

val crash_standby : t -> unit
(** Power-fail the standby's device array and reopen its store: volatile
    state is lost, the store recovers to its committed prefix, and the
    session's receiver state (applied generations, dedup horizon) is
    rebuilt from the durable ["repl.gen:*"] names. Torn imports die with
    the open generation; the primary's next ship NAK-resyncs from the
    last common generation. *)

val parse_repl_gen_name : string -> Store.gen option
(** The primary generation named by a destination's
    ["repl.gen:<pgid>/<g>@<corr>"] name, whatever its group; [None] for
    unrelated names. *)

val parse_repl_corr : string -> string option
(** The correlation id a replication generation name carries. *)

val corr_id : t -> gen:Store.gen -> string
(** The deterministic trace-correlation id this session puts on the
    wire for [gen] (["s<session id>-g<gen>"]). Every data frame for a
    generation carries it; the standby persists it in the generation
    name, and the primary's ["repl.ship"] span and flight-recorder
    events carry the same id — which is what lets [sls timeline] merge
    both nodes' recorders into one trace. *)
