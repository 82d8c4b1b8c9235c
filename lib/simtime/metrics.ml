type counter = { mutable c : int }
type gauge = { mutable g : float }

(* The one edge set every histogram shares: strictly increasing upper
   edges, 1us .. 1s, roughly 1-2-5 per decade, so a 10 us quiesce and a
   100 ms degraded flush resolve on the same axis. *)
let bounds =
  [| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.;
     1_000.; 2_000.; 5_000.; 10_000.; 20_000.; 50_000.;
     100_000.; 200_000.; 500_000.; 1_000_000. |]

type histogram = {
  counts : int array;              (* length bounds + 1; last = overflow *)
  mutable n : int;
  mutable sum : float;
  mutable vmax : float;            (* largest observed sample; -inf when empty *)
}

type metric =
  | Mcounter of counter
  | Mgauge of gauge
  | Mhistogram of histogram

type t = {
  clock : Clock.t;
  tbl : (string, metric) Hashtbl.t;
  mutable order : string list;     (* reverse registration order *)
  mutable hooks : (unit -> unit) list;  (* reverse registration order *)
  mutable in_hooks : bool;
}

let create clock =
  { clock; tbl = Hashtbl.create 64; order = []; hooks = []; in_hooks = false }

let on_snapshot t f = t.hooks <- f :: t.hooks

(* A hook that itself snapshots (directly or via a sync routine that
   reads gauges) must not recurse into the hook list. *)
let run_hooks t =
  if not t.in_hooks && t.hooks <> [] then begin
    t.in_hooks <- true;
    Fun.protect ~finally:(fun () -> t.in_hooks <- false)
      (fun () -> List.iter (fun f -> f ()) (List.rev t.hooks))
  end

let register t name m =
  Hashtbl.replace t.tbl name m;
  t.order <- name :: t.order

let kind_name = function
  | Mcounter _ -> "counter"
  | Mgauge _ -> "gauge"
  | Mhistogram _ -> "histogram"

let mismatch name existing wanted =
  invalid_arg
    (Printf.sprintf "Metrics: %s is a %s, not a %s" name (kind_name existing) wanted)

let counter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Mcounter c) -> c
  | Some m -> mismatch name m "counter"
  | None ->
    let c = { c = 0 } in
    register t name (Mcounter c);
    c

let gauge t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Mgauge g) -> g
  | Some m -> mismatch name m "gauge"
  | None ->
    let g = { g = 0.0 } in
    register t name (Mgauge g);
    g

let histogram t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Mhistogram h) -> h
  | Some m -> mismatch name m "histogram"
  | None ->
    let h =
      { counts = Array.make (Array.length bounds + 1) 0;
        n = 0; sum = 0.0; vmax = Float.neg_infinity }
    in
    register t name (Mhistogram h);
    h

(* --- hot path -------------------------------------------------------- *)

let incr c = c.c <- c.c + 1

let add c n =
  if n < 0 then invalid_arg "Metrics.add: negative increment";
  c.c <- c.c + n

let count c = c.c
let set g v = g.g <- v
let set_int g v = g.g <- float_of_int v
let value g = g.g

(* First bucket whose upper edge is >= v; the overflow bucket
   otherwise. Linear scan: bucket arrays are ~20 entries and the
   common phase durations land in the first few probes. *)
let bucket_index v =
  let n = Array.length bounds in
  let i = ref 0 in
  while !i < n && v > bounds.(!i) do Stdlib.incr i done;
  !i

let observe h v =
  let i = bucket_index v in
  h.counts.(i) <- h.counts.(i) + 1;
  h.n <- h.n + 1;
  h.sum <- h.sum +. v;
  if v > h.vmax then h.vmax <- v

let observe_duration h d = observe h (Duration.to_us d)

let hist_count h = h.n
let hist_sum h = h.sum
let hist_mean h = if h.n = 0 then Float.nan else h.sum /. float_of_int h.n

let bucket_counts h =
  let nb = Array.length bounds in
  List.init (nb + 1) (fun i ->
      ((if i < nb then bounds.(i) else Float.infinity), h.counts.(i)))

(* [max_seen] is the largest sample ever observed. Ranks landing in
   the overflow bucket report it instead of the last finite edge (a
   sample past the top edge used to be pinned to that edge, silently
   under-reporting p99/p100), and every interpolated estimate is
   clamped to it (a rank at the very top of a bucket cannot exceed
   what was actually seen). *)
let quantile_of ~counts ~n ?(max_seen = Float.nan) q =
  if n = 0 then Float.nan
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let target = q *. float_of_int n in
    let nb = Array.length bounds in
    let overflow () =
      if Float.is_finite max_seen then max_seen else bounds.(nb - 1)
    in
    let clamp v =
      if Float.is_finite max_seen then Float.min v max_seen else v
    in
    let rec walk i cum =
      let c = counts.(i) in
      let cum' = cum +. float_of_int c in
      if cum' >= target && c > 0 then begin
        if i >= nb then overflow ()
        else begin
          let lower = if i = 0 then 0.0 else bounds.(i - 1) in
          let upper = bounds.(i) in
          let frac = (target -. cum) /. float_of_int c in
          clamp (lower +. (frac *. (upper -. lower)))
        end
      end
      else if i >= nb then overflow ()
      else walk (i + 1) cum'
    in
    walk 0 0.0
  end

let quantile h q =
  quantile_of ~counts:h.counts ~n:h.n ~max_seen:h.vmax q

(* --- snapshot / export ----------------------------------------------- *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      bounds : float array;
      counts : int array;
      count : int;
      sum : float;
      max_seen : float;
    }

let value_of = function
  | Mcounter c -> Counter c.c
  | Mgauge g -> Gauge g.g
  | Mhistogram h ->
    Histogram
      { bounds = Array.copy bounds; counts = Array.copy h.counts;
        count = h.n; sum = h.sum;
        max_seen = (if h.n = 0 then Float.nan else h.vmax) }

let snapshot t =
  run_hooks t;
  List.rev_map (fun name -> (name, value_of (Hashtbl.find t.tbl name))) t.order

let find t name =
  run_hooks t;
  Option.map value_of (Hashtbl.find_opt t.tbl name)

let json_of_value : value -> Json.t = function
  | Counter c -> Obj [ ("type", String "counter"); ("value", Int c) ]
  | Gauge g -> Obj [ ("type", String "gauge"); ("value", Float g) ]
  | Histogram { bounds; counts; count; sum; max_seen } ->
    let nb = Array.length bounds in
    let quantiles =
      List.map
        (fun q ->
          ( Printf.sprintf "p%g" (q *. 100.),
            Json.Float (quantile_of ~counts ~n:count ~max_seen q) ))
        [ 0.5; 0.95; 0.99 ]
    in
    let bucket i =
      Json.Obj
        [ ("le", if i < nb then Float bounds.(i) else String "+inf");
          ("count", Int counts.(i)) ]
    in
    Obj
      ([ ("type", Json.String "histogram"); ("count", Int count); ("sum", Float sum);
         ("mean", Float (if count = 0 then Float.nan else sum /. float_of_int count));
         ("max", Float max_seen) ]
      @ quantiles
      @ [ ("buckets", List (List.init (nb + 1) bucket)) ])

let to_json t =
  let at_us = Duration.to_us (Clock.now t.clock) in
  let metrics = List.map (fun (name, v) -> (name, json_of_value v)) (snapshot t) in
  Json.to_string (Obj [ ("at_us", Float at_us); ("metrics", Obj metrics) ])
