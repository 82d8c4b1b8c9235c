type kind = Get | Set | Incr | Del

type spec = {
  nkeys : int;
  write_pct : int;
  hot_key_pct : int;
  hot_access_pct : int;
}

let check spec =
  if spec.nkeys <= 0 then invalid_arg "Workload: nkeys <= 0";
  let pct name v = if v < 0 || v > 100 then invalid_arg ("Workload: bad " ^ name) in
  pct "write_pct" spec.write_pct;
  pct "hot_key_pct" spec.hot_key_pct;
  pct "hot_access_pct" spec.hot_access_pct;
  spec

let uniform_5050 ~nkeys =
  check { nkeys; write_pct = 50; hot_key_pct = 100; hot_access_pct = 100 }

let read_heavy ~nkeys =
  check { nkeys; write_pct = 10; hot_key_pct = 20; hot_access_pct = 80 }

let write_heavy ~nkeys =
  check { nkeys; write_pct = 90; hot_key_pct = 100; hot_access_pct = 100 }

(* SplitMix64 finalizer — one hash per decision keeps op_of pure. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] hash_to_int h bound =
  Int64.to_int (Int64.shift_right_logical h 2) mod bound

let op_of spec ~opnum =
  let h1 = mix (Int64.of_int ((opnum * 4) + 1)) in
  let h2 = mix (Int64.of_int ((opnum * 4) + 2)) in
  let h3 = mix (Int64.of_int ((opnum * 4) + 3)) in
  let h4 = mix (Int64.of_int ((opnum * 4) + 4)) in
  let kind =
    if hash_to_int h1 100 >= spec.write_pct then Get
    else
      (* Redis-style mutation mix. *)
      match hash_to_int h4 10 with
      | 0 -> Del
      | 1 | 2 -> Incr
      | _ -> Set
  in
  let hot_keys = max 1 (spec.nkeys * spec.hot_key_pct / 100) in
  let key =
    if hash_to_int h2 100 < spec.hot_access_pct then hash_to_int h3 hot_keys
    else hash_to_int h3 spec.nkeys
  in
  (kind, key, h3)

let is_write = function Get -> false | Set | Incr | Del -> true

let keys_per_page = 512
let page_of_key key = key / keys_per_page
let offset_of_key key = key mod keys_per_page * 8
let pages_needed spec = (spec.nkeys + keys_per_page - 1) / keys_per_page
