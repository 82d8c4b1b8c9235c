open Aurora_simtime

type kind = Stop_time | Restore_latency

type alert = {
  al_kind : kind;
  al_pgid : int;
  al_at : Duration.t;
  al_observed_us : float;
  al_target_us : float;
  al_window_p99_us : float;
  al_top_procs : Types.proc_attribution list;
  al_top_objects : Types.obj_attribution list;
}

(* Fixed-size circular sample window; quantiles sort a copy on demand
   (the window is tens of entries, and only inspection paths ask). *)
type window = {
  buf : float array;
  mutable n : int;                 (* samples stored, <= Array.length buf *)
  mutable next : int;              (* write cursor *)
}

(* Samples per rolling window, alerts retained (oldest dropped), and
   attribution rows of each kind copied into an alert. *)
let window_size = 32
let max_alerts = 64
let top_k = 3

let make_window () = { buf = Array.make window_size 0.0; n = 0; next = 0 }

let window_add w v =
  w.buf.(w.next) <- v;
  w.next <- (w.next + 1) mod Array.length w.buf;
  if w.n < Array.length w.buf then w.n <- w.n + 1

let window_quantile w p =
  let s = Array.sub w.buf 0 w.n in
  Array.sort Float.compare s;
  Stats.percentile_of s p

type t = {
  mutable stop_target : Duration.t option;
  mutable restore_target : Duration.t option;
  stop_window : window;
  restore_window : window;
  mutable alerts : alert list;     (* newest first *)
  mutable stop_breaches : int;
  mutable restore_breaches : int;
}

let create () =
  { stop_target = None; restore_target = None;
    stop_window = make_window (); restore_window = make_window ();
    alerts = []; stop_breaches = 0; restore_breaches = 0 }

let set_stop_target t d = t.stop_target <- d
let set_restore_target t d = t.restore_target <- d
let stop_target t = t.stop_target

let window_of t = function
  | Stop_time -> t.stop_window
  | Restore_latency -> t.restore_window

let samples t k = (window_of t k).n
let quantile t k p = window_quantile (window_of t k) p
let alerts t = t.alerts

let breaches t = function
  | Stop_time -> t.stop_breaches
  | Restore_latency -> t.restore_breaches

let kind_label = function
  | Stop_time -> "stop_time"
  | Restore_latency -> "restore_latency"

let retain t alert =
  let kept =
    List.filteri (fun i _ -> i < max_alerts - 1) t.alerts
  in
  t.alerts <- alert :: kept

let observe t ?obs kind ~pgid ?attribution ~now observed =
  let w = window_of t kind in
  let observed_us = Duration.to_us observed in
  window_add w observed_us;
  let target =
    match kind with Stop_time -> t.stop_target | Restore_latency -> t.restore_target
  in
  match target with
  | Some target_d when Duration.(observed > target_d) ->
    (match kind with
     | Stop_time -> t.stop_breaches <- t.stop_breaches + 1
     | Restore_latency -> t.restore_breaches <- t.restore_breaches + 1);
    let top_procs, top_objects =
      match attribution with
      | Some a -> (Types.top_procs ~k:top_k a, Types.top_objects ~k:top_k a)
      | None -> ([], [])
    in
    let alert =
      { al_kind = kind; al_pgid = pgid; al_at = now;
        al_observed_us = observed_us;
        al_target_us = Duration.to_us target_d;
        al_window_p99_us = window_quantile w 99.0;
        al_top_procs = top_procs; al_top_objects = top_objects }
    in
    retain t alert;
    (match obs with
     | None -> ()
     | Some (o : Obs.t) ->
       let label = kind_label kind in
       let start_at =
         if Duration.(now > observed) then Duration.sub now observed
         else Duration.zero
       in
       Metrics.incr (Metrics.counter o.Obs.metrics ("slo.breach." ^ label));
       Span.record o.Obs.spans ~track:"slo"
         ~attrs:
           [ ("kind", label);
             ("pgid", string_of_int pgid);
             ("observed_us", Printf.sprintf "%.1f" observed_us);
             ("target_us", Printf.sprintf "%.1f" alert.al_target_us) ]
         ~name:("slo.breach." ^ label) ~start_at ~end_at:now ();
       (* Breaches survive the crash they often precede. *)
       Recorder.note_alert o.Obs.recorder ~kind:label ~pgid ~observed_us
         ~target_us:alert.al_target_us);
    Some alert
  | Some _ | None -> None

let clear t =
  t.stop_window.n <- 0;
  t.stop_window.next <- 0;
  t.restore_window.n <- 0;
  t.restore_window.next <- 0;
  t.alerts <- [];
  t.stop_breaches <- 0;
  t.restore_breaches <- 0
