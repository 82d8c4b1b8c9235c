(** Storage and interconnect device profiles.

    A profile captures the first-order performance model of a device:
    fixed per-command latency, streaming bandwidth, and cache
    volatility. Transfer cost is [latency + bytes/bandwidth], the
    standard linear model; it is deliberately simple but calibrated
    from public datasheets so that the paper's quantitative argument
    (flash now rivals the memory bus) is reproduced by accounting
    rather than assumption. *)

open Aurora_simtime

type t = {
  name : string;
  read_latency : Duration.t;   (** fixed cost per read command *)
  write_latency : Duration.t;  (** fixed cost per write command *)
  read_bw : float;             (** bytes per second, streaming reads *)
  write_bw : float;            (** bytes per second, streaming writes *)
  flush_latency : Duration.t;  (** cost of a cache-flush barrier *)
  volatile_cache : bool;       (** completed writes lost on crash until flushed *)
  stripes : int;               (** independent drives a {!Devarray} built on this
                                   profile stripes across (the paper's testbed
                                   uses four Optane 900Ps); 1 = a single device *)
}

val optane_900p : t
(** Intel Optane 900P (the paper's testbed): ~10 us latency,
    2.5/2.0 GB/s read/write, power-loss-protected cache. *)

val nand_ssd : t
(** Commodity NAND flash NVMe: ~80 us read latency, volatile cache. *)

val nvdimm : t
(** Byte-addressable persistent memory on the DIMM bus. *)

val dram : t
(** Main memory treated as an (ephemeral) backing device — the
    "memory backend" used for debugging and speculation checkpoints. *)

val spinning_disk : t
(** A 7200 rpm spinning disk: the hardware era that made earlier
    single-level stores (EROS, KeyKOS) impractical; used by the
    historical-ablation bench. *)

val net_10gbe : t
(** 10 GbE NIC link: the paper's remote-persistence backend. The
    [read_latency]/[write_latency] fields model one-way wire latency. *)

val transfer_cost : t -> op:[ `Read | `Write ] -> bytes:int -> Duration.t
(** Cost of one command moving [bytes] payload. Raises
    [Invalid_argument] on negative sizes. *)
