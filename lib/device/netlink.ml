open Aurora_simtime

type side = [ `A | `B ]

(* --- fault plans ------------------------------------------------------ *)

(* Seeded network-fault plans in the style of {!Fault}: rates are per
   message, drawn from a per-direction SplitMix64 stream derived from
   the plan's root seed, so the fault sequence each direction sees does
   not depend on the other direction's traffic. *)

type fault_plan = {
  seed : int64;
  drop_rate : float;
  duplicate_rate : float;
  reorder_rate : float;
  corrupt_rate : float;
  partitions : (Duration.t * Duration.t) list;
}

let no_faults =
  { seed = 1L; drop_rate = 0.; duplicate_rate = 0.; reorder_rate = 0.;
    corrupt_rate = 0.; partitions = [] }

let check_rate name r =
  if not (Float.is_finite r) || r < 0. || r > 1. then
    invalid_arg (Printf.sprintf "Netlink.fault_plan: %s rate %g not in [0,1]" name r)

let fault_plan ?(seed = 42L) ?(drop = 0.) ?(duplicate = 0.) ?(reorder = 0.)
    ?(corrupt = 0.) ?(partitions = []) () =
  check_rate "drop" drop;
  check_rate "duplicate" duplicate;
  check_rate "reorder" reorder;
  check_rate "corrupt" corrupt;
  List.iter
    (fun (s, e) ->
      if Duration.(e < s) then
        invalid_arg "Netlink.fault_plan: partition window ends before it starts")
    partitions;
  { seed; drop_rate = drop; duplicate_rate = duplicate; reorder_rate = reorder;
    corrupt_rate = corrupt; partitions }

(* --- per-direction state ---------------------------------------------- *)

type dir_stats = {
  msgs_sent : int;
  bytes_sent : int;
  msgs_delivered : int;
  bytes_delivered : int;
  dropped : int;
  duplicated : int;
  reordered : int;
  corrupted : int;
  partition_drops : int;
}

let zero_stats =
  { msgs_sent = 0; bytes_sent = 0; msgs_delivered = 0; bytes_delivered = 0;
    dropped = 0; duplicated = 0; reordered = 0; corrupted = 0;
    partition_drops = 0 }

type direction = {
  mutable busy_until : Duration.t;
  (* In-flight messages ordered by arrival time (reordering faults can
     make a later send overtake an earlier one, so this is a sorted
     list, not a FIFO). *)
  mutable inbox : (Duration.t * string) list;
  prng : Prng.t;
  mutable st : dir_stats;
}

type t = {
  clock : Clock.t;
  profile : Profile.t;
  faults : fault_plan;
  a_to_b : direction;
  b_to_a : direction;
  mutable bytes_sent : int;
}

let create ~clock ~profile ?(faults = no_faults) () =
  let dir i =
    (* Independent deterministic stream per direction, same derivation
       as {!Fault.injector}'s per-device streams. *)
    let seed =
      Int64.logxor faults.seed
        (Int64.mul (Int64.of_int (i + 1)) 0x9E3779B97F4A7C15L)
    in
    { busy_until = Duration.zero; inbox = []; prng = Prng.create ~seed;
      st = zero_stats }
  in
  { clock; profile; faults; a_to_b = dir 0; b_to_a = dir 1; bytes_sent = 0 }

let direction_to t (side : side) =
  match side with `A -> t.b_to_a | `B -> t.a_to_b

let direction_from t (side : side) =
  match side with `A -> t.a_to_b | `B -> t.b_to_a

let in_partition t at =
  List.exists
    (fun (s, e) -> Duration.(s <= at) && Duration.(at < e))
    t.faults.partitions

(* Stable insert: equal arrival times keep send order. *)
let insert dir arrival payload =
  let rec go = function
    | [] -> [ (arrival, payload) ]
    | ((a, _) as hd) :: tl when Duration.(a <= arrival) -> hd :: go tl
    | rest -> (arrival, payload) :: rest
  in
  dir.inbox <- go dir.inbox

let draw prng rate = rate > 0. && Prng.float prng 1.0 < rate

let flip_bit prng payload =
  if String.length payload = 0 then payload
  else begin
    let b = Bytes.of_string payload in
    let i = Prng.int prng (Bytes.length b) in
    let bit = Prng.int prng 8 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
    Bytes.unsafe_to_string b
  end

let send t ~from_ payload =
  let dir = direction_from t from_ in
  let bytes = String.length payload in
  let now = Clock.now t.clock in
  dir.st <-
    { dir.st with msgs_sent = dir.st.msgs_sent + 1;
      bytes_sent = dir.st.bytes_sent + bytes };
  t.bytes_sent <- t.bytes_sent + bytes;
  let wire_time =
    Duration.of_sec_float (float_of_int bytes /. t.profile.Profile.write_bw)
  in
  let start = Duration.max now dir.busy_until in
  let last_byte = Duration.add start wire_time in
  dir.busy_until <- last_byte;
  let arrival = Duration.add last_byte t.profile.Profile.write_latency in
  let p = t.faults in
  if in_partition t now then
    (* The wire is cut: the transmission happens (the sender charged
       the bandwidth) but nothing reaches the peer. *)
    dir.st <- { dir.st with partition_drops = dir.st.partition_drops + 1 }
  else if draw dir.prng p.drop_rate then
    dir.st <- { dir.st with dropped = dir.st.dropped + 1 }
  else begin
    let payload =
      if draw dir.prng p.corrupt_rate then begin
        dir.st <- { dir.st with corrupted = dir.st.corrupted + 1 };
        flip_bit dir.prng payload
      end
      else payload
    in
    let arrival =
      if draw dir.prng p.reorder_rate then begin
        dir.st <- { dir.st with reordered = dir.st.reordered + 1 };
        (* Delay past the next few transmissions so a younger message
           can overtake this one. *)
        let hold =
          Duration.scale_float
            (Duration.add wire_time t.profile.Profile.write_latency)
            (1.0 +. Prng.float dir.prng 3.0)
        in
        Duration.add arrival hold
      end
      else arrival
    in
    insert dir arrival payload;
    if draw dir.prng p.duplicate_rate then begin
      dir.st <- { dir.st with duplicated = dir.st.duplicated + 1 };
      insert dir (Duration.add arrival t.profile.Profile.write_latency) payload
    end
  end;
  arrival

let recv t ~side =
  let dir = direction_to t side in
  match dir.inbox with
  | (arrival, payload) :: rest when Duration.(arrival <= Clock.now t.clock) ->
    dir.inbox <- rest;
    dir.st <-
      { dir.st with msgs_delivered = dir.st.msgs_delivered + 1;
        bytes_delivered = dir.st.bytes_delivered + String.length payload };
    Some payload
  | _ -> None

let recv_blocking t ~side =
  let dir = direction_to t side in
  match dir.inbox with
  | [] -> None
  | (arrival, payload) :: rest ->
    dir.inbox <- rest;
    Clock.advance_to t.clock arrival;
    dir.st <-
      { dir.st with msgs_delivered = dir.st.msgs_delivered + 1;
        bytes_delivered = dir.st.bytes_delivered + String.length payload };
    Some payload

let next_arrival t ~side =
  match (direction_to t side).inbox with
  | (arrival, _) :: _ -> Some arrival
  | [] -> None

let pending t ~side = List.length (direction_to t side).inbox
let stats t ~from_ = (direction_from t from_).st
let bytes_sent t = t.bytes_sent
