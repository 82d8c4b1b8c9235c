open Aurora_simtime

type t = {
  name : string;
  read_latency : Duration.t;
  write_latency : Duration.t;
  read_bw : float;
  write_bw : float;
  flush_latency : Duration.t;
  volatile_cache : bool;
  stripes : int;
}

let gib = 1024. *. 1024. *. 1024.

(* Intel Optane SSD 900P datasheet: 10 us typical latency, 2.5 GB/s
   sequential read, 2.0 GB/s sequential write; 3D XPoint media with
   power-loss-protected write path. *)
let optane_900p = {
  name = "optane-900p";
  read_latency = Duration.microseconds 10;
  write_latency = Duration.microseconds 10;
  read_bw = 2.5 *. gib;
  write_bw = 2.0 *. gib;
  flush_latency = Duration.microseconds 2;
  volatile_cache = false;
  stripes = 1;
}

let nand_ssd = {
  name = "nand-ssd";
  read_latency = Duration.microseconds 80;
  write_latency = Duration.microseconds 20;
  read_bw = 3.0 *. gib;
  write_bw = 1.5 *. gib;
  flush_latency = Duration.microseconds 500;
  volatile_cache = true;
  stripes = 1;
}

let nvdimm = {
  name = "nvdimm";
  read_latency = Duration.nanoseconds 300;
  write_latency = Duration.nanoseconds 100;
  read_bw = 6.0 *. gib;
  write_bw = 2.0 *. gib;
  flush_latency = Duration.nanoseconds 500;
  volatile_cache = false;
  stripes = 1;
}

let dram = {
  name = "dram";
  read_latency = Duration.nanoseconds 90;
  write_latency = Duration.nanoseconds 90;
  read_bw = 20.0 *. gib;
  write_bw = 20.0 *. gib;
  flush_latency = Duration.zero;
  volatile_cache = true; (* DRAM contents never survive a crash *)
  stripes = 1;
}

let spinning_disk = {
  name = "spinning-disk";
  read_latency = Duration.milliseconds 8;
  write_latency = Duration.milliseconds 8;
  read_bw = 150. *. 1024. *. 1024.;
  write_bw = 120. *. 1024. *. 1024.;
  flush_latency = Duration.milliseconds 10;
  volatile_cache = true;
  stripes = 1;
}

let net_10gbe = {
  name = "net-10gbe";
  read_latency = Duration.microseconds 15;
  write_latency = Duration.microseconds 15;
  read_bw = 1.25 *. gib;
  write_bw = 1.25 *. gib;
  flush_latency = Duration.zero;
  volatile_cache = true;
  stripes = 1;
}

let transfer_cost t ~op ~bytes =
  if bytes < 0 then invalid_arg "Profile.transfer_cost: negative size";
  let latency, bw =
    match op with
    | `Read -> (t.read_latency, t.read_bw)
    | `Write -> (t.write_latency, t.write_bw)
  in
  Duration.add latency (Duration.of_sec_float (float_of_int bytes /. bw))
