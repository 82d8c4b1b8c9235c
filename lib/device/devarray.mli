(** A striped array of independent block devices.

    The paper's testbed stripes checkpoint I/O across four Intel
    Optane 900P drives; sub-millisecond stop times rely on the
    background flush draining all of them in parallel. This layer
    models that: N {!Blockdev.t} queues behind one logical block
    address space, round-robin striped —

    {v logical b  ->  device (b mod n), physical (b / n) v}

    so a contiguous logical extent fans out across every device while
    each device receives a contiguous physical run. A submission is a
    column of blocks beside a column of contents. It is split per
    device by counting each device's blocks, each device's share is
    ordered by physical block (submission order among repeats), and
    the device charges one transfer per run of contiguous physical
    blocks. The array's completion time is the {e max} over the
    devices touched — parallel submissions genuinely overlap in
    simulated time, so an N-stripe flush of K blocks finishes in ~1/N
    the single-device time.

    With [stripes = 1] the mapping is the identity and the array
    behaves exactly like the single device it wraps. *)

open Aurora_simtime

type t

val create : ?sched:Iosched.config -> ?stripes:int -> ?capacity_blocks:int ->
  ?faults:Fault.plan -> clock:Clock.t -> profile:Profile.t -> string -> t
(** [create ~clock ~profile name] builds devices [name.0] ..
    [name.n-1]. [sched] selects each device's I/O scheduler
    ({!Iosched.Fifo} by default). [stripes] defaults to the profile's
    stripe count; [capacity_blocks] is the {e logical} capacity, split
    evenly. [faults] attaches a deterministic media-fault plan: each
    device gets its own seeded {!Fault.injector}. Raises
    [Invalid_argument] when [stripes < 1]. *)

val set_obs : t -> Obs.t option -> unit
(** Bind (or, with [None], detach) every stripe's instrumentation —
    see {!Blockdev.set_obs}. *)

val stripes : t -> int
val devices : t -> Blockdev.t array
val name : t -> string
val profile : t -> Profile.t
val clock : t -> Clock.t

val capacity_blocks : t -> int option
(** Logical capacity of the whole array ([None] = unbounded). The
    store bounds its allocator with this so exhaustion surfaces as a
    typed out-of-space, not a device-level write failure. *)

val locate : t -> int -> int * int
(** [locate t b] is [(device index, physical block)] for logical block
    [b]. Total on non-negative blocks; with {!logical} it forms a
    bijection. *)

val logical : t -> dev:int -> phys:int -> int
(** Inverse of {!locate}. *)

(* --- synchronous I/O ------------------------------------------------ *)

val read : ?cls:Iosched.cls -> t -> int -> Blockdev.content
val peek : t -> int -> Blockdev.content

val read_many_arr : ?cls:Iosched.cls -> t -> int array -> Blockdev.content array
(** One command per device touched, issued at the same simulated
    instant; the clock advances to the slowest device's completion.
    Results are in request order. [cls] defaults to [Foreground]. *)

val write : ?cls:Iosched.cls -> t -> int -> Blockdev.content -> unit
(** Synchronous one-block write: {!write_async_arr} of one block, then
    blocks until it completes. [cls] defaults to [Flush]. *)

(* --- asynchronous I/O and the commit barrier ------------------------ *)

val write_async_arr :
  ?not_before:Duration.t -> ?cls:Iosched.cls -> t -> int array ->
  Blockdev.content array -> Duration.t
(** [write_async_arr t blocks contents]: logical block [blocks.(i)]
    takes [contents.(i)]. Every asynchronous write is submitted so, as a
    column of blocks beside a column of contents. Each device gets one
    exact-size column of keys, physical block first and submission
    position second. A column that already ascends is not sorted;
    otherwise only the keys that arrive below the running maximum are
    sorted and merged back, so a fresh extent with a few blocks out of
    place orders in linear time.
    {!Blockdev.write_sorted} queues the column as one submission, with
    one transfer per run of contiguous physical blocks. Returns the
    {e max} completion time; does not advance the clock. [cls] defaults
    to [Flush]. The devices keep the per-device columns, not the
    caller's. Raises [Invalid_argument] on a negative block or columns
    of different lengths. *)

val write_oob : t -> int array -> Blockdev.content array -> Duration.t
(** Out-of-band control write, as columns like {!write_async_arr}'s:
    dedicated per-device submission queues charged from now rather than
    behind queued transfers, so the write can become durable while
    earlier data submissions still drain. Used for the store's black-box
    slot; see {!Blockdev.write_oob}. *)

(* --- completion groups ----------------------------------------------- *)

type group
(** Per-stripe completion horizon for one commit epoch's writes. While
    a group is open, every async submission's per-device completion is
    recorded into it; awaiting the group then covers exactly that
    epoch's I/O — not unrelated app traffic or younger epochs that
    happen to share the queues. Plain data (no closures): arrays are
    marshalled into CLI universe files. *)

val begin_group : t -> group
(** Open a group and make it current. Submissions from now until
    {!end_group} are attributed to it. *)

val end_group : t -> group
(** Close the current group and return it. Raises [Invalid_argument]
    when no group is open. *)

val discard_group : t -> unit
(** Drop any open group without returning it (error-path cleanup). *)

val group_completion : group -> Duration.t
(** Max completion over the group's stripes — when all of the epoch's
    writes are durable. [Duration.zero] for an empty group. *)

val await : t -> Duration.t -> unit
val flush : t -> unit
val crash : t -> unit

(* --- stats ---------------------------------------------------------- *)

val stats : t -> Blockdev.stats
(** Aggregate: field-wise sum of {!device_stats}. *)

val device_stats : t -> Blockdev.stats array

(** Per-class scheduler accounting summed over the stripes. *)
val sched_stats : t -> Iosched.stats

val reset_stats : t -> unit
val used_blocks : t -> int

(* --- fault injection ------------------------------------------------- *)

val has_faults : t -> bool
(** Whether any device carries a fault injector. The store uses this
    to turn on its integrity machinery by default. *)

val inject_latent : t -> int -> unit
(** Mark a {e logical} block as a latent sector error: every read of
    it fails until something rewrites the block. Creates a zero-rate
    injector on the owning device if none is attached. *)

val drop_device : t -> int -> unit
(** Fail device [d] outright: every subsequent command addressed to
    it raises. Raises [Invalid_argument] on a bad index. *)

val fault_stats : t -> Fault.stats
(** Aggregate injected-fault counters over all devices. *)
