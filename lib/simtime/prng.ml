type t = { mutable state : int64; zipf_cache : (int * float, zipf_params) Hashtbl.t }

and zipf_params = { zetan : float; alpha : float; eta : float; theta : float }

let golden_gamma = 0x9E3779B97F4A7C15L

(* SplitMix64 finalizer (Steele, Lea & Flood 2014). *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed = { state = seed; zipf_cache = Hashtbl.create 4 }

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let seed = next_int64 t in
  create ~seed:(mix64 (Int64.logxor seed 0x5851F42D4C957F2DL))

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound <= 0";
  (* Keep 62 bits so the native-int conversion stays non-negative. *)
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  (* 53 significant bits, in [0,1) *)
  r /. 9007199254740992.0 *. bound

(* Zipfian generator following Gray et al., "Quickly generating
   billion-record synthetic databases" (SIGMOD '94), as used by YCSB. *)
let zeta n theta =
  let acc = ref 0.0 in
  for i = 1 to n do
    acc := !acc +. (1.0 /. Float.pow (float_of_int i) theta)
  done;
  !acc

let zipf_params t ~n ~theta =
  match Hashtbl.find_opt t.zipf_cache (n, theta) with
  | Some p -> p
  | None ->
    let zetan = zeta n theta in
    let zeta2 = zeta 2 theta in
    let alpha = 1.0 /. (1.0 -. theta) in
    let eta =
      (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta))
      /. (1.0 -. (zeta2 /. zetan))
    in
    let p = { zetan; alpha; eta; theta } in
    Hashtbl.replace t.zipf_cache (n, theta) p;
    p

let zipf t ~n ~theta =
  if n <= 0 then invalid_arg "Prng.zipf: n <= 0";
  if theta < 0.0 || theta >= 1.0 then invalid_arg "Prng.zipf: theta not in [0,1)";
  if theta = 0.0 then int t n
  else begin
    let p = zipf_params t ~n ~theta in
    let u = float t 1.0 in
    let uz = u *. p.zetan in
    if uz < 1.0 then 0
    else if uz < 1.0 +. Float.pow 0.5 p.theta then 1
    else
      let r =
        float_of_int n
        *. Float.pow ((p.eta *. u) -. p.eta +. 1.0) p.alpha
      in
      Stdlib.min (n - 1) (int_of_float r)
  end

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
