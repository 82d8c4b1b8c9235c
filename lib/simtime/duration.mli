(** Durations of simulated time.

    A duration is a non-negative span of simulated time with nanosecond
    resolution, stored as a native [int] (63-bit on 64-bit platforms, so
    the representable range is about 292 years — far beyond any
    simulation run). All arithmetic saturates at zero rather than going
    negative. *)

type t
(** A span of simulated time. Total order; [compare] is monotone in the
    underlying nanosecond count. *)

val zero : t

val nanoseconds : int -> t
(** [nanoseconds n] is a duration of [n] ns. Raises [Invalid_argument]
    if [n < 0]. *)

val microseconds : int -> t
val milliseconds : int -> t
val seconds : int -> t

val of_us_float : float -> t
(** [of_us_float us] converts fractional microseconds, rounding to the
    nearest nanosecond. Raises [Invalid_argument] on negative or
    non-finite input. *)

val of_sec_float : float -> t
(** Like {!of_us_float} but the input is in seconds. *)

val to_ns : t -> int
val to_us : t -> float
val to_ms : t -> float
val to_sec : t -> float

val add : t -> t -> t
val sub : t -> t -> t
(** [sub a b] is [a - b], saturating at {!zero} when [b > a]. *)

val scale : t -> int -> t
(** [scale d n] is [d] repeated [n] times. Raises [Invalid_argument] if
    [n < 0]. *)

val scale_float : t -> float -> t
(** [scale_float d f] multiplies by a non-negative factor, rounding to
    the nearest nanosecond. *)

val div : t -> int -> t
(** Integer division of the nanosecond count. Raises [Division_by_zero]. *)

val ratio : t -> t -> float
(** [ratio a b] is [a/b] as a float; [nan] when [b] is {!zero}. *)

val min : t -> t -> t
val max : t -> t -> t

val equal : t -> t -> bool
val compare : t -> t -> int
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Human-readable rendering with an adaptive unit, e.g. ["950.8us"],
    ["5.4ms"], ["1.2s"]. *)

val pp_us : Format.formatter -> t -> unit
(** Always renders in microseconds with one decimal, matching the
    paper's tables, e.g. ["5145.9"]. *)
