(** Dynamic tracepoints with DTrace-style online aggregation.

    A registry holds a fixed set of named tracepoints ({!point}); the
    instrumented subsystems fire them with a flat argument record
    (device name, operation, generation, process-group id, duration in
    microseconds, block count). Firing sites guard on {!enabled}, which
    is a single array-indexed boolean read — with no subscriptions the
    disabled path performs no allocation and no call beyond that
    check, so probes compiled into the hot paths are free until someone
    asks a question.

    Questions are posed in a tiny expression DSL, one subscription per
    query:

    {v
      POINT [where PRED] [agg AGG] [by FIELD]

      POINT := dev.io | store.commit | ckpt.phase | repl.msg | alloc.defer
      PRED  := disjunctions (||) of conjunctions (&&) of comparisons,
               parenthesised freely; && binds tighter than ||
      CMP   := FIELD (= | != | < | <= | > | >=) VALUE
      AGG   := count | sum(F) | min(F) | max(F) | avg(F) | quantize(F)
      FIELD := dev | op | cls | gen | pgid | us | blocks
    v}

    e.g. ["dev.io where dev = nvme1 && us > 50 agg quantize(us) by op"].
    [quantize] is the DTrace power-of-two histogram. Matching events
    update in-registry aggregation cells keyed by the [by] field; no
    event log is retained. The registry is plain data (no closures), so
    it is safe to marshal along with the structures that reference it. *)

type t

type point =
  | Dev_io        (** every block-device command (read/write/oob) *)
  | Store_commit  (** an object-store generation reaching durability *)
  | Ckpt_phase    (** one checkpoint barrier phase (quiesce/serialize/...) *)
  | Repl_msg      (** a replication frame hitting the wire, or a ship *)
  | Alloc_defer   (** deferred-free lifecycle (park/release/settle) *)

val points : point list
val point_name : point -> string

val create : unit -> t

val enabled : t -> point -> bool
(** True iff at least one live subscription targets the point. A plain
    array read; the intended firing-site guard. *)

val fire :
  ?cls:string -> t -> point ->
  dev:string -> op:string -> gen:int -> pgid:int -> us:float ->
  blocks:int -> unit
(** Deliver one event to every subscription on the point. Callers must
    only reach this under an {!enabled} guard so argument
    computation is skipped on the disabled path. Fields that do not
    apply use [""] / [-1]. [cls] is the I/O scheduling class on
    [dev.io] events (["fg"] / ["flush"] / ["bg"] / ["deadline"]);
    it defaults to [""]. *)

(* --- query DSL ------------------------------------------------------- *)

type field = Fdev | Fop | Fcls | Fgen | Fpgid | Fus | Fblocks
type cmp = Eq | Ne | Lt | Le | Gt | Ge

type value = Num of float | Str of string

type pred =
  | Cmp of field * cmp * value
  | And of pred * pred
  | Or of pred * pred

type agg =
  | Count
  | Sum of field
  | Min of field
  | Max of field
  | Avg of field
  | Quantize of field

type spec = {
  sp_point : point;
  sp_pred : pred option;
  sp_agg : agg;
  sp_by : field option;
}

val parse : string -> (spec, string) result
(** Parse a query; the error is a human-readable message with a
    position hint. *)

val print : spec -> string
(** Canonical rendering; [parse (print s)] returns [Ok s] for every
    well-formed [s] (string values are re-quoted, numbers printed
    shortest-exact). *)

(* --- subscriptions and reports --------------------------------------- *)

val subscribe : t -> spec -> int
(** Returns a subscription id; the point becomes {!enabled}. *)

val unsubscribe : t -> int -> unit
(** Unknown ids are ignored. Points with no remaining subscription
    become disabled again. *)

val subscriptions : t -> (int * spec) list

type row = {
  r_key : string;        (** the [by]-field value, [""] without [by] *)
  r_n : int;             (** matched events folded into this row *)
  r_sum : float;
  r_min : float;         (** [nan] when no numeric samples *)
  r_max : float;
  r_buckets : int array; (** power-of-two buckets (quantize only), else [||] *)
}

type report = {
  rp_id : int;
  rp_spec : spec;
  rp_fired : int;        (** events seen at the point since subscribe *)
  rp_matched : int;      (** events passing the predicate *)
  rp_rows : row list;    (** sorted by key *)
}

val report : t -> int -> report option
val reports : t -> report list

val reset : t -> unit
(** Zero every subscription's cells and counters (keep subscriptions). *)

val quantize_lower : int -> float
(** Lower edge of power-of-two bucket [i]: 0 for bucket 0, else
    [2.^(i-1)]. *)

val render : report -> string
(** Human-readable aggregation table (quantize renders the classic
    DTrace bar chart). *)

val report_json : report -> string
