(** The flight recorder: a bounded, generation-stamped telemetry ring
    that survives crashes through the single level store.

    Where {!Metrics} and {!Span} die with the kernel, the recorder's
    ring is serialized into every checkpoint generation as a
    store-managed object, so recovery and failover reopen to the
    telemetry of the last durable generation instead of an empty ring.
    The ring holds recent point events — checkpoint captures and
    retirements, replication ships and acks, pipeline/repl state
    transitions — plus a crash-reason slot stamped by whoever performs
    the recovery (the crashing kernel cannot write it).

    Alongside the ring the recorder maintains a tiny {e black box}
    summary: the most recent capture marks (generation, pgroup,
    instant) and the replication ship/ack horizon. The store writes it
    to a dedicated slot outside any generation on every capture, which
    is what lets a post-mortem name the epochs that were in flight when
    the machine died — information the per-generation ring can never
    carry, because a ring recovered from durable generation [g] only
    knows about captures up to [g].

    Both serialize with {!Serial} and travel as {!Serial.seal}ed blobs
    (magics ["AURORA-FREC-v2"] and ["AURORA-BBOX-v2"]):
    {!export}/{!import_into} move the whole ring through a checkpoint
    record, {!export_blackbox}/{!import_blackbox} move the summary
    through the store's black-box slot. *)

type event = {
  ev_seq : int;          (** monotone sequence number, survives import *)
  ev_at : Duration.t;    (** simulated instant the event was logged *)
  ev_kind : string;      (** e.g. ["ckpt.capture"], ["repl.ack"] *)
  ev_gen : int;          (** generation involved, [-1] when not applicable *)
  ev_detail : string;
  ev_attrs : (string * string) list;
}

(** One checkpoint capture, as remembered by the black box. *)
type capture_mark = { cm_gen : int; cm_pgid : int; cm_at : Duration.t }

(** The black-box summary: enough to reconstruct what was in flight.
    [bb_captures] are the newest capture marks, oldest first;
    [bb_repl] says a replication session was attached (distinguishes
    "no acks yet" from "no replication at all");
    [bb_acked_gen] is the last primary generation a standby
    acknowledged durable ([-1] when replication never acked);
    [bb_shipped] are generations shipped but not yet acked at write
    time. *)
type blackbox = {
  bb_at : Duration.t;
  bb_captures : capture_mark list;
  bb_repl : bool;
  bb_acked_gen : int;
  bb_shipped : int list;
}

type t

val create : Clock.t -> t

val capacity : int
(** Events the ring retains (256); once full the oldest events are
    overwritten and {!dropped} counts them. *)

val occupancy : t -> int
(** Events currently retained. *)

val dropped : t -> int
(** Events the ring has overwritten since creation/import. *)

val events : t -> event list
(** Oldest first. *)

val log :
  t -> ?gen:int -> ?attrs:(string * string) list -> kind:string -> string -> unit
(** Append one event stamped with the clock's current instant. *)

(* --- structured entry points (each also logs an event) --------------- *)

val mark_inflight : t -> gen:int -> pgid:int -> unit
(** Add a capture mark for an epoch about to commit — no ring event.
    The checkpoint engine calls this {e before} queueing the epoch's
    writes, so the black box naming the epoch can be durable while the
    epoch itself is still in flight. Re-marking a generation refreshes
    its mark. *)

val unmark : t -> gen:int -> unit
(** Drop the capture mark for a generation whose commit aborted. *)

val note_capture : t -> gen:int -> pgid:int -> stop_us:float -> unit
(** A checkpoint capture committed (not necessarily durable yet).
    Logs the ring event and refreshes the epoch's capture mark. *)

val note_retire : t -> gen:int -> unit
(** A captured epoch's generation became durable and was retired. *)

val note_ship : t -> gen:int -> corr:string -> outcome:string -> unit
(** The replica session transmitted [gen] under correlation id [corr].
    Marks the generation shipped-unacked in the black box (unless the
    outcome was an ack). *)

val note_ack : t -> gen:int -> corr:string -> unit
(** The standby acknowledged [gen] durable. Advances the black box's
    ack horizon and clears shipped marks up to it. *)

val note_transition : t -> subsystem:string -> string -> unit
(** A pipeline/replication state transition, e.g.
    [note_transition r ~subsystem:"repl" "session degraded"]. *)

(* --- the crash-reason slot ------------------------------------------- *)

val crash_reason : t -> string option
val set_crash_reason : t -> string -> unit
(** Stamped by [recover]/[failover] with the detected cause (e.g.
    ["unclean shutdown: 2 epochs in flight"]); also logged as a
    ["crash"] event. *)

(* --- black-box accessors --------------------------------------------- *)

val captures : t -> capture_mark list
(** Retained capture marks, oldest first (bounded). *)

val repl_attached : t -> bool
val set_repl_attached : t -> bool -> unit
(** Whether a replication session is (or was) attached. Survives
    export/import so a post-mortem can tell "nothing acked yet" apart
    from "no replication configured". *)

val adopt_blackbox : t -> blackbox -> unit
(** Merge a recovered on-device summary into the live state: capture
    marks the ring missed (the box is written per capture and so is
    typically one epoch ahead of the stored ring), the replication
    flag, and the ship/ack horizon. Recovery calls this right after
    {!import_into}, keeping black-box state continuous across
    reboots. *)

val seed_repl_horizon : t -> acked:int -> unit
(** Advance the ack horizon without logging an event — used when a
    re-established replication session recovers its acked generation
    from the standby's durable state rather than from a live ACK. *)

val acked_gen : t -> int option
val shipped_unacked : t -> int list
(** Ascending. *)

(* --- serialization ---------------------------------------------------- *)

val export : t -> string
(** The whole recorder state (ring, counters, black-box summary,
    crash-reason slot) as a sealed blob — what the checkpoint engine
    stores under the recorder oid each epoch. *)

val import_into : t -> string -> (unit, string) result
(** Replace [t]'s state with an exported blob's (the clock binding is
    kept). [Error] names the defect (bad magic, checksum mismatch,
    truncation, trailing bytes) and leaves [t] untouched. *)

val export_blackbox : t -> string
(** Just the black-box summary, small enough for the store's
    single-block slot (which numbers its own writes). *)

val import_blackbox : string -> (blackbox, string) result
