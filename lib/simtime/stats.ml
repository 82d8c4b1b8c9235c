type t = {
  mutable samples : float list;
  mutable sorted : float array option; (* cache, invalidated by add *)
  mutable count : int;
  mutable total : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create () =
  { samples = []; sorted = None; count = 0; total = 0.0;
    min_v = Float.infinity; max_v = Float.neg_infinity }

let add t x =
  t.samples <- x :: t.samples;
  t.sorted <- None;
  t.count <- t.count + 1;
  t.total <- t.total +. x;
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x

let add_duration t d = add t (Duration.to_us d)
let count t = t.count
let mean t = if t.count = 0 then Float.nan else t.total /. float_of_int t.count
let min_value t = if t.count = 0 then Float.nan else t.min_v
let max_value t = if t.count = 0 then Float.nan else t.max_v

let sorted t =
  match t.sorted with
  | Some a -> a
  | None ->
    let a = Array.of_list t.samples in
    Array.sort Float.compare a;
    t.sorted <- Some a;
    a

let percentile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p outside [0,100]";
  let sorted = sorted t in
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else sorted.(int_of_float (Float.round (p /. 100.0 *. float_of_int (n - 1))))

let median t = percentile t 50.0

let pp_summary ppf t =
  if t.count = 0 then Format.fprintf ppf "n=0"
  else
    Format.fprintf ppf "n=%d mean=%.2f p50=%.2f p99=%.2f max=%.2f"
      t.count (mean t) (median t) (percentile t 99.0) t.max_v
