(** Seeded, deterministic media-fault injection.

    Real persistent stores are engineered against more than clean power
    loss: drives return transient I/O errors, develop latent sector
    errors that persist until the sector is rewritten, silently corrupt
    bits, and occasionally fail outright. A {!plan} describes which of
    these a simulated device array should exhibit; every draw comes
    from a SplitMix64 stream derived from the plan's seed, so a fault
    schedule is reproducible bit-for-bit — the property the fuzz tests
    and the fault-sweep bench rely on.

    Semantics implemented by {!Blockdev}:
    - {e transient} errors fail a single command probabilistically;
      the same sector succeeds on retry. The device controller retries
      writes internally with exponential backoff (charged as extra
      queue time); reads surface the error for the store's retry
      policy.
    - {e latent sector} errors fail every read of the sector until it
      is rewritten (writes remap the sector and clear the error) —
      read-repair by rewriting is exactly what heals them.
    - {e corruption} silently flips a bit in the written payload; only
      an end-to-end checksum can catch it.
    - a {e dropped} device fails every command addressed to it. *)

(** What a device array should suffer. Rates are per-block
    probabilities in [0,1]. Latent sectors and dropped devices are
    injected on a live array ({!Devarray.inject_latent},
    {!Devarray.drop_device}). *)
type plan = private {
  seed : int64;
  transient_read_rate : float;
  transient_write_rate : float;
  corruption_rate : float;
}

val plan :
  ?seed:int64 ->
  ?transient_read:float ->
  ?transient_write:float ->
  ?corruption:float ->
  unit ->
  plan
(** All rates default to 0. Raises [Invalid_argument] on a rate
    outside [0,1]. *)

val is_none : plan -> bool

(* --- errors ---------------------------------------------------------- *)

type error =
  | Transient of { dev : string; op : [ `Read | `Write ]; phys : int }
  | Latent of { dev : string; phys : int }
  | Dropped of { dev : string }

exception Io_error of error
(** Raised by device commands that fail under the plan. [phys] is the
    {e physical} (per-device) block number; [dev] names the device. *)

val describe : error -> string

(* --- per-device injectors -------------------------------------------- *)

(** Injected-fault counters (monotone; snapshot semantics). *)
type stats = {
  transient_reads : int;   (** injected transient read errors *)
  transient_writes : int;  (** injected transient write errors (each retried) *)
  latent_reads : int;      (** reads that hit a latent sector *)
  corruptions : int;       (** blocks silently corrupted on write *)
}

val zero_stats : stats
val add_stats : stats -> stats -> stats

type injector
(** One device's live fault state: its PRNG stream, latent-sector set,
    dropped flag and counters. Attached to a {!Blockdev.t}. *)

val injector : ?dev_index:int -> plan -> injector
(** [dev_index] (default 0) derives an independent stream per array
    device from the plan's root seed. *)

val stats : injector -> stats

val draw_transient_read : injector -> bool
val draw_transient_write : injector -> bool
val draw_corruption : injector -> bool
(** Draw from the stream; [true] means inject (and count) a fault. *)

val is_dropped : injector -> bool
val set_dropped : injector -> bool -> unit

val is_latent : injector -> int -> bool
val note_latent : injector -> unit
(** Count a read that hit a latent sector. *)

val add_latent : injector -> int -> unit
(** Mark a physical block as a latent sector error. *)

val clear_latent : injector -> int -> unit
(** A write remaps the sector: the latent error disappears. *)

val pick : injector -> int -> int
(** Uniform draw in [0, bound) from the injector's stream (which bit
    to flip when corrupting). *)
