type t = int (* nanoseconds, always >= 0 *)

let zero = 0

let nanoseconds n =
  if n < 0 then invalid_arg "Duration.nanoseconds: negative";
  n

let microseconds n = nanoseconds n * 1_000
let milliseconds n = nanoseconds n * 1_000_000
let seconds n = nanoseconds n * 1_000_000_000

let of_us_float us =
  if not (Float.is_finite us) || us < 0.0 then
    invalid_arg "Duration.of_us_float: negative or non-finite";
  int_of_float (Float.round (us *. 1_000.))

let of_sec_float s =
  if not (Float.is_finite s) || s < 0.0 then
    invalid_arg "Duration.of_sec_float: negative or non-finite";
  int_of_float (Float.round (s *. 1e9))

let to_ns t = t
let to_us t = float_of_int t /. 1_000.
let to_ms t = float_of_int t /. 1_000_000.
let to_sec t = float_of_int t /. 1e9

let add a b = a + b
let sub a b = if b >= a then 0 else a - b

let scale d n =
  if n < 0 then invalid_arg "Duration.scale: negative";
  d * n

let scale_float d f =
  if not (Float.is_finite f) || f < 0.0 then
    invalid_arg "Duration.scale_float: negative or non-finite";
  int_of_float (Float.round (float_of_int d *. f))

let div d n = d / n
let ratio a b = if b = 0 then Float.nan else float_of_int a /. float_of_int b
let min = Stdlib.min
let max = Stdlib.max
let equal = Int.equal
let compare = Int.compare
let ( < ) (a : t) b = Stdlib.( < ) a b
let ( <= ) (a : t) b = Stdlib.( <= ) a b
let ( > ) (a : t) b = Stdlib.( > ) a b
let ( >= ) (a : t) b = Stdlib.( >= ) a b

let pp ppf t =
  if t >= 1_000_000_000 then Format.fprintf ppf "%.3fs" (to_sec t)
  else if t >= 1_000_000 then Format.fprintf ppf "%.3fms" (to_ms t)
  else if t >= 1_000 then Format.fprintf ppf "%.1fus" (to_us t)
  else Format.fprintf ppf "%dns" t

let pp_us ppf t = Format.fprintf ppf "%.1f" (to_us t)
