type event = {
  ev_seq : int;
  ev_at : Duration.t;
  ev_kind : string;
  ev_gen : int;
  ev_detail : string;
  ev_attrs : (string * string) list;
}

type capture_mark = { cm_gen : int; cm_pgid : int; cm_at : Duration.t }

type blackbox = {
  bb_at : Duration.t;
  bb_captures : capture_mark list;
  bb_repl : bool;
  bb_acked_gen : int;
  bb_shipped : int list;
}

(* Capture marks the black box retains: enough to cover any plausible
   in-flight window many times over, small enough that the summary
   always fits the store's single-block slot. *)
let max_capture_marks = 64

let capacity = 256

type t = {
  clock : Clock.t;
  ring : event option array;       (* circular, [head] = next write slot *)
  mutable head : int;
  mutable len : int;
  mutable seq : int;               (* next event sequence number *)
  mutable dropped : int;
  mutable crash : string option;
  mutable marks : capture_mark list;   (* newest first, bounded *)
  mutable repl : bool;                 (* a replication session is/was attached *)
  mutable acked : int;                 (* last acked primary gen, -1 none *)
  mutable shipped : int list;          (* shipped-unacked gens, ascending *)
}

let create clock =
  { clock; ring = Array.make capacity None; head = 0; len = 0;
    seq = 0; dropped = 0; crash = None; marks = []; repl = false; acked = -1;
    shipped = [] }

let occupancy t = t.len
let dropped t = t.dropped

let events t =
  let first = (t.head - t.len + capacity * 2) mod capacity in
  List.init t.len (fun i ->
      match t.ring.((first + i) mod capacity) with
      | Some e -> e
      | None -> assert false)

let push t e =
  if t.len >= capacity then t.dropped <- t.dropped + 1
  else t.len <- t.len + 1;
  t.ring.(t.head) <- Some e;
  t.head <- (t.head + 1) mod capacity

let log t ?(gen = -1) ?(attrs = []) ~kind detail =
  let e =
    { ev_seq = t.seq; ev_at = Clock.now t.clock; ev_kind = kind; ev_gen = gen;
      ev_detail = detail; ev_attrs = attrs }
  in
  t.seq <- t.seq + 1;
  push t e

(* --- structured entry points ----------------------------------------- *)

let mark_inflight t ~gen ~pgid =
  let mark = { cm_gen = gen; cm_pgid = pgid; cm_at = Clock.now t.clock } in
  let marks = mark :: List.filter (fun m -> m.cm_gen <> gen) t.marks in
  t.marks <-
    (if List.length marks > max_capture_marks then
       List.filteri (fun i _ -> i < max_capture_marks) marks
     else marks)

let unmark t ~gen = t.marks <- List.filter (fun m -> m.cm_gen <> gen) t.marks

let note_capture t ~gen ~pgid ~stop_us =
  log t ~gen
    ~attrs:[ ("pgid", string_of_int pgid);
             ("stop_us", Printf.sprintf "%.1f" stop_us) ]
    ~kind:"ckpt.capture"
    (Printf.sprintf "captured generation %d (pgroup %d)" gen pgid);
  (* Normally a no-op refresh: the checkpoint engine marked the epoch
     in flight before committing it. *)
  mark_inflight t ~gen ~pgid

let note_retire t ~gen =
  log t ~gen ~kind:"ckpt.retire" (Printf.sprintf "generation %d durable" gen)

let note_ship t ~gen ~corr ~outcome =
  log t ~gen
    ~attrs:[ ("corr", corr); ("outcome", outcome) ]
    ~kind:"repl.ship"
    (Printf.sprintf "shipped generation %d (%s)" gen outcome);
  if outcome <> "acked" && gen > t.acked && not (List.mem gen t.shipped) then
    t.shipped <- List.sort Int.compare (gen :: t.shipped)

let note_ack t ~gen ~corr =
  log t ~gen ~attrs:[ ("corr", corr) ] ~kind:"repl.ack"
    (Printf.sprintf "standby acked generation %d durable" gen);
  if gen > t.acked then t.acked <- gen;
  t.shipped <- List.filter (fun g -> g > t.acked) t.shipped

let note_transition t ~subsystem detail =
  log t ~kind:(subsystem ^ ".state") detail

let crash_reason t = t.crash

let set_crash_reason t reason =
  t.crash <- Some reason;
  log t ~kind:"crash" reason

let captures t = List.rev t.marks
let repl_attached t = t.repl
let set_repl_attached t v = t.repl <- v

let adopt_blackbox t bb =
  (* Merge a recovered on-device summary into the live state. The box
     is written out-of-band on every capture, so it is typically newer
     than the ring recovered alongside it — notably it names the very
     generation that ring was stored in (the ring exports before its
     own epoch's mark). *)
  t.repl <- t.repl || bb.bb_repl;
  if bb.bb_acked_gen > t.acked then t.acked <- bb.bb_acked_gen;
  t.shipped <-
    List.filter
      (fun g -> g > t.acked)
      (List.sort_uniq Int.compare (bb.bb_shipped @ t.shipped));
  let extra =
    List.filter
      (fun m -> not (List.exists (fun m' -> m'.cm_gen = m.cm_gen) t.marks))
      bb.bb_captures
  in
  let marks =
    (* Newest first, as the live list keeps them; generations are
       monotone so ordering by gen preserves insertion order. *)
    List.sort (fun a b -> Int.compare b.cm_gen a.cm_gen) (extra @ t.marks)
  in
  t.marks <-
    (if List.length marks > max_capture_marks then
       List.filteri (fun i _ -> i < max_capture_marks) marks
     else marks)

let seed_repl_horizon t ~acked =
  if acked > t.acked then begin
    t.acked <- acked;
    t.shipped <- List.filter (fun g -> g > acked) t.shipped
  end
let acked_gen t = if t.acked < 0 then None else Some t.acked
let shipped_unacked t = t.shipped

(* --- serialization ------------------------------------------------------
   Both blobs are {!Serial.seal}ed: fixed-width 8-byte ints (flags and
   the crash-reason tag included), length-prefixed strings, and
   durations as their nanosecond count. *)

let w_dur w d = Serial.w_int w (Duration.to_ns d)

let r_dur r =
  let ns = Serial.r_int r in
  if ns < 0 then raise (Serial.Corrupt "negative duration");
  Duration.nanoseconds ns

let ring_magic = "AURORA-FREC-v2"
let bbox_magic = "AURORA-BBOX-v2"

let w_event w e =
  Serial.w_int w e.ev_seq;
  w_dur w e.ev_at;
  Serial.w_string w e.ev_kind;
  Serial.w_int w e.ev_gen;
  Serial.w_string w e.ev_detail;
  Serial.w_list w (fun w (k, v) -> Serial.w_string w k; Serial.w_string w v) e.ev_attrs

let r_event r =
  let ev_seq = Serial.r_int r in
  let ev_at = r_dur r in
  let ev_kind = Serial.r_string r in
  let ev_gen = Serial.r_int r in
  let ev_detail = Serial.r_string r in
  let ev_attrs =
    Serial.r_list r (fun r ->
        let k = Serial.r_string r in
        let v = Serial.r_string r in
        (k, v))
  in
  { ev_seq; ev_at; ev_kind; ev_gen; ev_detail; ev_attrs }

let w_mark w m =
  Serial.w_int w m.cm_gen;
  Serial.w_int w m.cm_pgid;
  w_dur w m.cm_at

let r_mark r =
  let cm_gen = Serial.r_int r in
  let cm_pgid = Serial.r_int r in
  let cm_at = r_dur r in
  { cm_gen; cm_pgid; cm_at }

let export t =
  let w = Serial.writer () in
  Serial.w_int w t.seq;
  Serial.w_int w t.dropped;
  (match t.crash with
   | None -> Serial.w_int w 0
   | Some reason -> Serial.w_int w 1; Serial.w_string w reason);
  Serial.w_int w (if t.repl then 1 else 0);
  Serial.w_int w t.acked;
  Serial.w_list w Serial.w_int t.shipped;
  Serial.w_list w w_mark (List.rev t.marks);
  Serial.w_list w w_event (events t);
  Serial.seal ~magic:ring_magic (Serial.contents w)

let import_into t blob =
  Serial.unseal_with ~magic:ring_magic blob (fun r ->
      let seq = Serial.r_int r in
      let dropped = Serial.r_int r in
      let crash = if Serial.r_int r = 1 then Some (Serial.r_string r) else None in
      let repl = Serial.r_int r = 1 in
      let acked = Serial.r_int r in
      let shipped = Serial.r_list r Serial.r_int in
      let marks = Serial.r_list r r_mark in
      let evs = Serial.r_list r r_event in
      (seq, dropped, crash, repl, acked, shipped, marks, evs))
  |> Result.map (fun (seq, dropped, crash, repl, acked, shipped, marks, evs) ->
         Array.fill t.ring 0 capacity None;
         t.head <- 0;
         t.len <- 0;
         t.seq <- seq;
         t.dropped <- dropped;
         t.crash <- crash;
         t.repl <- repl;
         t.acked <- acked;
         t.shipped <- shipped;
         t.marks <- List.rev marks;
         (* Imported events beyond our capacity count as drops, exactly
            as if they had flowed through this ring live. *)
         List.iter (push t) evs)

let export_blackbox t =
  let w = Serial.writer () in
  w_dur w (Clock.now t.clock);
  Serial.w_list w w_mark (List.rev t.marks);
  Serial.w_int w (if t.repl then 1 else 0);
  Serial.w_int w t.acked;
  Serial.w_list w Serial.w_int t.shipped;
  Serial.seal ~magic:bbox_magic (Serial.contents w)

let import_blackbox blob =
  Serial.unseal_with ~magic:bbox_magic blob (fun r ->
      let bb_at = r_dur r in
      let bb_captures = Serial.r_list r r_mark in
      let bb_repl = Serial.r_int r = 1 in
      let bb_acked_gen = Serial.r_int r in
      let bb_shipped = Serial.r_list r Serial.r_int in
      { bb_at; bb_captures; bb_repl; bb_acked_gen; bb_shipped })
