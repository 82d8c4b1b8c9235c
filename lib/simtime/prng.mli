(** Deterministic, splittable pseudo-random number generator.

    SplitMix64 core. Every source of randomness in the simulator draws
    from a [Prng.t] derived from a single root seed, so whole-machine
    runs are reproducible bit-for-bit. [split] derives an independent
    child stream, used to give each subsystem its own generator without
    coupling their consumption patterns. *)

type t

val create : seed:int64 -> t
val split : t -> t
(** An independent child generator; advances the parent. *)

val next_int64 : t -> int64
val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound). Raises
    [Invalid_argument] if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val zipf : t -> n:int -> theta:float -> int
(** [zipf t ~n ~theta] draws from a Zipfian distribution over
    [0, n) with skew [theta] (0 = uniform; 0.99 = YCSB default) using
    the Gray et al. rejection-free method. Raises [Invalid_argument]
    if [n <= 0] or [theta] is not in [0, 1). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
