(** Simulated full-duplex network link between two hosts.

    Both ends share one simulated clock (the simulation models a single
    universe). Each direction serializes transmissions through its own
    bandwidth queue; a message arrives one wire latency after its last
    byte is on the wire. Payloads are opaque strings — the SLS
    send/recv machinery ships serialized checkpoint records over
    this.

    A seeded {!fault_plan} (in the style of {!Fault}) makes the link
    lossy: per-direction drop / duplicate / reorder probabilities,
    payload bit-flip corruption, and timed partition windows during
    which nothing crosses the wire. Each direction draws from its own
    deterministic SplitMix64 stream derived from the plan's root seed,
    so runs are reproducible bit-for-bit. *)

open Aurora_simtime

type t
type side = [ `A | `B ]

(* --- fault plans ----------------------------------------------------- *)

type fault_plan = {
  seed : int64;
  drop_rate : float;        (** P(message silently lost), per message *)
  duplicate_rate : float;   (** P(message delivered twice) *)
  reorder_rate : float;     (** P(message held back past younger sends) *)
  corrupt_rate : float;     (** P(one payload bit flipped in flight) *)
  partitions : (Duration.t * Duration.t) list;
      (** Absolute sim-time windows [start, stop) during which every
          send is lost (both directions). *)
}

val fault_plan :
  ?seed:int64 -> ?drop:float -> ?duplicate:float -> ?reorder:float ->
  ?corrupt:float -> ?partitions:(Duration.t * Duration.t) list -> unit ->
  fault_plan
(** All rates default to zero. Raises [Invalid_argument] on a rate
    outside [0,1] or a partition window that ends before it starts. *)

(* --- per-direction accounting ---------------------------------------- *)

type dir_stats = {
  msgs_sent : int;          (** messages offered to this direction *)
  bytes_sent : int;
  msgs_delivered : int;     (** messages handed to the receiver *)
  bytes_delivered : int;
  dropped : int;            (** lost to the drop rate *)
  duplicated : int;
  reordered : int;
  corrupted : int;
  partition_drops : int;    (** lost to a partition window *)
}

(* --- the link --------------------------------------------------------- *)

val create :
  clock:Clock.t -> profile:Profile.t -> ?faults:fault_plan -> unit -> t
(** The profile's [write_latency] is the one-way wire latency and
    [write_bw] the link bandwidth. [faults] defaults to
    {!no_faults}. *)

val send : t -> from_:side -> string -> Duration.t
(** Queue a message from one side; returns its absolute arrival time at
    the peer (what it would have been, for a message the fault plan
    lost). Does not advance the clock (transmission is
    asynchronous). *)

val recv : t -> side:side -> string option
(** Next message addressed to [side] that has already arrived, if
    any. *)

val recv_blocking : t -> side:side -> string option
(** Like {!recv}, but if a message is still in flight, advances the
    clock to its arrival. [None] only when nothing is queued at all. *)

val next_arrival : t -> side:side -> Duration.t option
(** Arrival time of the earliest in-flight message addressed to
    [side], if any — the event horizon a protocol pump sleeps to. *)

val pending : t -> side:side -> int
(** Messages queued for [side], whether or not they have arrived. *)

val in_partition : t -> Duration.t -> bool
(** Whether the given instant falls inside a partition window. *)

val stats : t -> from_:side -> dir_stats
(** Counters for the direction that carries messages sent from
    [from_]. *)

val bytes_sent : t -> int
(** Total payload bytes ever queued, both directions. *)
