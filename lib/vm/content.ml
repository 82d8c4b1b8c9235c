type t = int64

let zero = 0L
let of_seed s = s
let to_seed s = s

(* SplitMix64 finalizer: good avalanche, cheap. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let check_offset offset =
  if offset < 0 || offset >= 4096 then invalid_arg "Content.write: offset outside page"

(* Mix the store into the seed; include the offset so stores to
   different locations commute differently. *)
let[@inline] stored t ~offset ~value =
  let x = Int64.logxor (Int64.of_int offset) (Int64.mul value 0x9E3779B97F4A7C15L) in
  mix (Int64.add (Int64.mul t 0x2545F4914F6CDD1DL) x)

let write t ~offset ~value =
  check_offset offset;
  stored t ~offset ~value

let[@inline] hash t = mix (Int64.logxor t 0xA5A5A5A5A5A5A5A5L)
let[@inline] load t ~offset = Int64.logxor (hash t) (Int64.of_int offset)

let equal = Int64.equal
let is_zero t = Int64.equal t 0L

let to_bytes t =
  let b = Bytes.create 4096 in
  if is_zero t then b
  else begin
    let state = ref t in
    for i = 0 to 511 do
      state := Int64.add !state 0x9E3779B97F4A7C15L;
      Bytes.set_int64_le b (i * 8) (mix !state)
    done;
    b
  end

let slot_bytes = 8
let[@inline] get col i = Bytes.get_int64_le col (i * slot_bytes)
let[@inline] set col i t = Bytes.set_int64_le col (i * slot_bytes) t

let write_in col i ~offset ~value =
  check_offset offset;
  set col i (stored (get col i) ~offset ~value)

let load_in col i ~offset = load (get col i) ~offset

let hash_column col =
  let hashes = Bytes.create (Bytes.length col) in
  for i = 0 to (Bytes.length col / slot_bytes) - 1 do
    Bytes.set_int64_le hashes (8 * i) (hash (get col i))
  done;
  hashes

let pp ppf t = Format.fprintf ppf "0x%Lx" t
