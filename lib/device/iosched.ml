open Aurora_simtime

type cls = Foreground | Flush | Background | Deadline

type config =
  | Fifo
  | Wdrr of {
      fg_weight : int;
      flush_weight : int;
      bg_weight : int;
      quantum_us : float;
    }

let default_wdrr =
  Wdrr { fg_weight = 1; flush_weight = 16; bg_weight = 4; quantum_us = 400. }

let cls_name = function
  | Foreground -> "fg"
  | Flush -> "flush"
  | Background -> "bg"
  | Deadline -> "deadline"

let cls_index = function
  | Foreground -> 0
  | Flush -> 1
  | Background -> 2
  | Deadline -> 3

(* A reserved slice of device idle time: pacing inserts it between bulk
   transfers, gap-fill consumes it. Half-open [g_start, g_end). *)
type gap = { g_start : Duration.t; g_end : Duration.t }

(* Plain data only — devices (and their schedulers) are marshalled into
   CLI universe files, so no closures may be reachable from here. *)
type t = {
  cfg : config;
  mutable horizon : Duration.t;   (* bulk queue drains at this time *)
  mutable acc : Duration.t;       (* bulk service since the last reserved gap *)
  mutable gaps : gap list;        (* unconsumed slack, sorted by g_start *)
  st_ops : int array;
  st_blocks : int array;
  st_service_us : float array;
  mutable st_fg_gap_fills : int;
  mutable st_fg_wait_us : float;
  mutable st_gaps_reserved_us : float;
  mutable st_gaps_used_us : float;
  mutable st_gaps_expired_us : float;
}

let create cfg =
  { cfg; horizon = Duration.zero; acc = Duration.zero; gaps = [];
    st_ops = Array.make 4 0; st_blocks = Array.make 4 0;
    st_service_us = Array.make 4 0.;
    st_fg_gap_fills = 0; st_fg_wait_us = 0.;
    st_gaps_reserved_us = 0.; st_gaps_used_us = 0.; st_gaps_expired_us = 0. }

let config t = t.cfg
let horizon t = t.horizon

(* Gaps the clock has passed are gone: the device sat idle through
   them. The list is sorted, so stop at the first live gap (trimming
   its already-elapsed prefix). *)
let prune t ~now =
  let rec go = function
    | [] -> []
    | g :: rest ->
      if Duration.(g.g_end <= now) then begin
        t.st_gaps_expired_us <-
          t.st_gaps_expired_us +. Duration.to_us (Duration.sub g.g_end g.g_start);
        go rest
      end
      else if Duration.(g.g_start < now) then begin
        t.st_gaps_expired_us <-
          t.st_gaps_expired_us +. Duration.to_us (Duration.sub now g.g_start);
        { g with g_start = now } :: rest
      end
      else g :: rest
  in
  t.gaps <- go t.gaps

(* Serve a foreground/deadline op from the earliest reserved gap that
   fits it whole; leftover slack on either side stays reserved. *)
let try_fill t ~arrival ~cost =
  let rec go seen = function
    | [] -> None
    | g :: rest ->
      let s = Duration.max g.g_start arrival in
      let e = Duration.add s cost in
      if Duration.(e <= g.g_end) then begin
        let keep =
          (if Duration.(g.g_start < s) then [ { g with g_end = s } ] else [])
          @ (if Duration.(e < g.g_end) then [ { g with g_start = e } ] else [])
        in
        t.gaps <- List.rev_append seen (keep @ rest);
        t.st_fg_gap_fills <- t.st_fg_gap_fills + 1;
        t.st_gaps_used_us <- t.st_gaps_used_us +. Duration.to_us cost;
        Some s
      end
      else go (g :: seen) rest
  in
  go [] t.gaps

(* Walk a bulk transfer across the pacing quanta: every [quantum] of
   bulk service, reserve a gap of [quantum * fg_weight / weight] and
   skip the timeline past it. Gaps are created in increasing order, so
   tail-append keeps the list sorted. *)
let paced t ~arrival ~fg_weight ~weight ~quantum ~cost =
  let start = Duration.max arrival t.horizon in
  let gap_len = Duration.div (Duration.scale quantum fg_weight) weight in
  let pos = ref start and remaining = ref cost in
  while Duration.(!remaining > zero) do
    let room = Duration.sub quantum t.acc in
    let chunk = Duration.min !remaining room in
    pos := Duration.add !pos chunk;
    t.acc <- Duration.add t.acc chunk;
    remaining := Duration.sub !remaining chunk;
    if Duration.(t.acc >= quantum) then begin
      t.gaps <- t.gaps @ [ { g_start = !pos; g_end = Duration.add !pos gap_len } ];
      t.st_gaps_reserved_us <- t.st_gaps_reserved_us +. Duration.to_us gap_len;
      pos := Duration.add !pos gap_len;
      t.acc <- Duration.zero
    end
  done;
  t.horizon <- !pos;
  (start, !pos)

let account t ~cls ~cost ~blocks =
  let i = cls_index cls in
  t.st_ops.(i) <- t.st_ops.(i) + 1;
  t.st_blocks.(i) <- t.st_blocks.(i) + blocks;
  t.st_service_us.(i) <- t.st_service_us.(i) +. Duration.to_us cost

let note_unscheduled t ~cls ~cost ~blocks = account t ~cls ~cost ~blocks

let schedule ?(not_before = Duration.zero) t ~now ~cls ~cost ~blocks =
  account t ~cls ~cost ~blocks;
  let arrival = Duration.max now not_before in
  match t.cfg with
  | Fifo ->
    (* Bit-identical to the historical single busy_until queue. *)
    let start = Duration.max arrival t.horizon in
    let completion = Duration.add start cost in
    t.horizon <- completion;
    (start, completion)
  | Wdrr { fg_weight; flush_weight; bg_weight; quantum_us } ->
    prune t ~now;
    let quantum = Duration.of_us_float quantum_us in
    (match cls with
     | Foreground | Deadline ->
       let start =
         match try_fill t ~arrival ~cost with
         | Some s -> s
         | None ->
           let s = Duration.max arrival t.horizon in
           t.horizon <- Duration.add s cost;
           s
       in
       t.st_fg_wait_us <-
         t.st_fg_wait_us +. Duration.to_us (Duration.sub start arrival);
       (start, Duration.add start cost)
     | Flush -> paced t ~arrival ~fg_weight ~weight:flush_weight ~quantum ~cost
     | Background -> paced t ~arrival ~fg_weight ~weight:bg_weight ~quantum ~cost)

let extend t dur = t.horizon <- Duration.add t.horizon dur

let reset_to t now =
  List.iter
    (fun g ->
      t.st_gaps_expired_us <-
        t.st_gaps_expired_us +. Duration.to_us (Duration.sub g.g_end g.g_start))
    t.gaps;
  t.gaps <- [];
  t.acc <- Duration.zero;
  t.horizon <- now

type stats = {
  s_ops : int array;
  s_blocks : int array;
  s_service_us : float array;
  s_fg_gap_fills : int;
  s_fg_wait_us : float;
  s_gaps_reserved_us : float;
  s_gaps_used_us : float;
  s_gaps_expired_us : float;
}

let stats t =
  { s_ops = Array.copy t.st_ops; s_blocks = Array.copy t.st_blocks;
    s_service_us = Array.copy t.st_service_us;
    s_fg_gap_fills = t.st_fg_gap_fills; s_fg_wait_us = t.st_fg_wait_us;
    s_gaps_reserved_us = t.st_gaps_reserved_us;
    s_gaps_used_us = t.st_gaps_used_us;
    s_gaps_expired_us = t.st_gaps_expired_us }

let zero_stats =
  { s_ops = Array.make 4 0; s_blocks = Array.make 4 0;
    s_service_us = Array.make 4 0.;
    s_fg_gap_fills = 0; s_fg_wait_us = 0.;
    s_gaps_reserved_us = 0.; s_gaps_used_us = 0.; s_gaps_expired_us = 0. }

let add_stats a b =
  { s_ops = Array.init 4 (fun i -> a.s_ops.(i) + b.s_ops.(i));
    s_blocks = Array.init 4 (fun i -> a.s_blocks.(i) + b.s_blocks.(i));
    s_service_us = Array.init 4 (fun i -> a.s_service_us.(i) +. b.s_service_us.(i));
    s_fg_gap_fills = a.s_fg_gap_fills + b.s_fg_gap_fills;
    s_fg_wait_us = a.s_fg_wait_us +. b.s_fg_wait_us;
    s_gaps_reserved_us = a.s_gaps_reserved_us +. b.s_gaps_reserved_us;
    s_gaps_used_us = a.s_gaps_used_us +. b.s_gaps_used_us;
    s_gaps_expired_us = a.s_gaps_expired_us +. b.s_gaps_expired_us }
