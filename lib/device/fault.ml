open Aurora_simtime

(* --- fault plans ----------------------------------------------------- *)

type plan = {
  seed : int64;
  transient_read_rate : float;
  transient_write_rate : float;
  corruption_rate : float;
}

let check_rate name r =
  if not (Float.is_finite r) || r < 0. || r > 1. then
    invalid_arg (Printf.sprintf "Fault.plan: %s rate %g not in [0,1]" name r)

let plan ?(seed = 42L) ?(transient_read = 0.) ?(transient_write = 0.)
    ?(corruption = 0.) () =
  check_rate "transient_read" transient_read;
  check_rate "transient_write" transient_write;
  check_rate "corruption" corruption;
  { seed; transient_read_rate = transient_read;
    transient_write_rate = transient_write; corruption_rate = corruption }

let is_none p =
  p.transient_read_rate = 0. && p.transient_write_rate = 0.
  && p.corruption_rate = 0.

(* --- errors ---------------------------------------------------------- *)

type error =
  | Transient of { dev : string; op : [ `Read | `Write ]; phys : int }
  | Latent of { dev : string; phys : int }
  | Dropped of { dev : string }

exception Io_error of error

let describe = function
  | Transient { dev; op; phys } ->
    Printf.sprintf "transient %s error on %s block %d"
      (match op with `Read -> "read" | `Write -> "write")
      dev phys
  | Latent { dev; phys } -> Printf.sprintf "latent sector error on %s block %d" dev phys
  | Dropped { dev } -> Printf.sprintf "device %s dropped" dev

let () =
  Printexc.register_printer (function
    | Io_error e -> Some (Printf.sprintf "Fault.Io_error(%s)" (describe e))
    | _ -> None)

(* --- per-device injectors -------------------------------------------- *)

type stats = {
  transient_reads : int;
  transient_writes : int;
  latent_reads : int;
  corruptions : int;
}

let zero_stats =
  { transient_reads = 0; transient_writes = 0; latent_reads = 0; corruptions = 0 }

let add_stats a b =
  { transient_reads = a.transient_reads + b.transient_reads;
    transient_writes = a.transient_writes + b.transient_writes;
    latent_reads = a.latent_reads + b.latent_reads;
    corruptions = a.corruptions + b.corruptions }

type injector = {
  transient_read_rate : float;
  transient_write_rate : float;
  corruption_rate : float;
  prng : Prng.t;
  latent : (int, unit) Hashtbl.t;
  mutable is_dropped : bool;
  mutable st : stats;
}

let injector ?(dev_index = 0) p =
  (* Each device of an array gets an independent deterministic stream
     derived from the plan's root seed, so fault sequences do not
     depend on the order devices happen to be exercised in. *)
  let seed =
    Int64.logxor p.seed
      (Int64.mul (Int64.of_int (dev_index + 1)) 0x9E3779B97F4A7C15L)
  in
  { transient_read_rate = p.transient_read_rate;
    transient_write_rate = p.transient_write_rate;
    corruption_rate = p.corruption_rate;
    prng = Prng.create ~seed;
    latent = Hashtbl.create 8;
    is_dropped = false;
    st = zero_stats }

let stats inj = inj.st

let draw inj rate = rate > 0. && Prng.float inj.prng 1.0 < rate

let draw_transient_read inj =
  if draw inj inj.transient_read_rate then begin
    inj.st <- { inj.st with transient_reads = inj.st.transient_reads + 1 };
    true
  end
  else false

let draw_transient_write inj =
  if draw inj inj.transient_write_rate then begin
    inj.st <- { inj.st with transient_writes = inj.st.transient_writes + 1 };
    true
  end
  else false

let draw_corruption inj =
  if draw inj inj.corruption_rate then begin
    inj.st <- { inj.st with corruptions = inj.st.corruptions + 1 };
    true
  end
  else false

let is_dropped inj = inj.is_dropped
let set_dropped inj v = inj.is_dropped <- v

let is_latent inj phys = Hashtbl.mem inj.latent phys

let note_latent inj =
  inj.st <- { inj.st with latent_reads = inj.st.latent_reads + 1 }

let add_latent inj phys =
  if phys < 0 then invalid_arg "Fault.add_latent: negative block";
  Hashtbl.replace inj.latent phys ()

let clear_latent inj phys = Hashtbl.remove inj.latent phys

let pick inj bound = Prng.int inj.prng bound
