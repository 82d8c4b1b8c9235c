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
  bb_seq : int;
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
  mutable bb_seq : int;                (* black-box export counter *)
}

let create clock =
  { clock; ring = Array.make capacity None; head = 0; len = 0;
    seq = 0; dropped = 0; crash = None; marks = []; repl = false; acked = -1;
    shipped = []; bb_seq = 0 }

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

(* --- self-contained binary serialization -----------------------------
   This library sits below [Serial], so the recorder carries its own
   writer/reader: fixed-width 64-bit ints (big-endian), length-prefixed
   strings, an FNV-1a checksum over the payload, and a magic per
   format. Durations serialize as their nanosecond count. *)

let w_i64 b v =
  for i = 7 downto 0 do
    Buffer.add_char b (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (i * 8)) 0xFFL)))
  done

let w_int b v = w_i64 b (Int64.of_int v)

let w_str b s =
  w_int b (String.length s);
  Buffer.add_string b s

let w_dur b d = w_int b (Duration.to_ns d)

exception Corrupt of string

type reader = { data : string; mutable pos : int }

let need r n =
  if r.pos + n > String.length r.data then raise (Corrupt "truncated")

let r_i64 r =
  need r 8;
  let v = ref 0L in
  for _ = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code r.data.[r.pos]));
    r.pos <- r.pos + 1
  done;
  !v

let r_int r = Int64.to_int (r_i64 r)

let r_str r =
  let n = r_int r in
  if n < 0 then raise (Corrupt "negative length");
  need r n;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let r_dur r =
  let ns = r_int r in
  if ns < 0 then raise (Corrupt "negative duration");
  Duration.nanoseconds ns

let w_list b f l =
  w_int b (List.length l);
  List.iter (f b) l

let r_list r f =
  let n = r_int r in
  if n < 0 || n > 10_000_000 then raise (Corrupt "bad list length");
  List.init n (fun _ -> f r)

let seal ~magic payload =
  let b = Buffer.create (String.length payload + 32) in
  Buffer.add_string b magic;
  w_int b (String.length payload);
  Buffer.add_string b payload;
  w_i64 b (Fnv.fnv1a payload);
  Buffer.contents b

let unseal ~magic blob =
  let ml = String.length magic in
  if String.length blob < ml || String.sub blob 0 ml <> magic then
    Error "bad magic"
  else begin
    let r = { data = blob; pos = ml } in
    match
      let n = r_int r in
      if n < 0 then raise (Corrupt "negative payload length");
      need r n;
      let payload = String.sub r.data r.pos n in
      r.pos <- r.pos + n;
      let csum = r_i64 r in
      (payload, csum)
    with
    | payload, csum ->
      if Fnv.fnv1a payload <> csum then Error "checksum mismatch" else Ok payload
    | exception Corrupt msg -> Error msg
  end

let ring_magic = "AURORA-FREC-v1"
let bbox_magic = "AURORA-BBOX-v1"

let w_event b e =
  w_int b e.ev_seq;
  w_dur b e.ev_at;
  w_str b e.ev_kind;
  w_int b e.ev_gen;
  w_str b e.ev_detail;
  w_list b (fun b (k, v) -> w_str b k; w_str b v) e.ev_attrs

let r_event r =
  let ev_seq = r_int r in
  let ev_at = r_dur r in
  let ev_kind = r_str r in
  let ev_gen = r_int r in
  let ev_detail = r_str r in
  let ev_attrs = r_list r (fun r -> let k = r_str r in let v = r_str r in (k, v)) in
  { ev_seq; ev_at; ev_kind; ev_gen; ev_detail; ev_attrs }

let w_mark b m =
  w_int b m.cm_gen;
  w_int b m.cm_pgid;
  w_dur b m.cm_at

let r_mark r =
  let cm_gen = r_int r in
  let cm_pgid = r_int r in
  let cm_at = r_dur r in
  { cm_gen; cm_pgid; cm_at }

let export t =
  let b = Buffer.create 4096 in
  w_int b t.seq;
  w_int b t.dropped;
  (match t.crash with
   | None -> w_int b 0
   | Some reason -> w_int b 1; w_str b reason);
  w_int b (if t.repl then 1 else 0);
  w_int b t.acked;
  w_list b w_int t.shipped;
  w_list b w_mark (List.rev t.marks);
  w_list b w_event (events t);
  seal ~magic:ring_magic (Buffer.contents b)

let import_into t blob =
  match unseal ~magic:ring_magic blob with
  | Error _ as e -> e
  | Ok payload -> (
    match
      let r = { data = payload; pos = 0 } in
      let seq = r_int r in
      let dropped = r_int r in
      let crash = if r_int r = 1 then Some (r_str r) else None in
      let repl = r_int r = 1 in
      let acked = r_int r in
      let shipped = r_list r r_int in
      let marks = r_list r r_mark in
      let evs = r_list r r_event in
      (seq, dropped, crash, repl, acked, shipped, marks, evs)
    with
    | seq, dropped, crash, repl, acked, shipped, marks, evs ->
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
      List.iter (push t) evs;
      (* Imported events beyond our capacity count as drops, exactly as
         if they had flowed through this ring live. *)
      Ok ()
    | exception Corrupt msg -> Error msg)

let export_blackbox t =
  t.bb_seq <- t.bb_seq + 1;
  let b = Buffer.create 512 in
  w_int b t.bb_seq;
  w_dur b (Clock.now t.clock);
  w_list b w_mark (List.rev t.marks);
  w_int b (if t.repl then 1 else 0);
  w_int b t.acked;
  w_list b w_int t.shipped;
  seal ~magic:bbox_magic (Buffer.contents b)

let import_blackbox blob =
  match unseal ~magic:bbox_magic blob with
  | Error _ as e -> e
  | Ok payload -> (
    match
      let r = { data = payload; pos = 0 } in
      let bb_seq = r_int r in
      let bb_at = r_dur r in
      let bb_captures = r_list r r_mark in
      let bb_repl = r_int r = 1 in
      let bb_acked_gen = r_int r in
      let bb_shipped = r_list r r_int in
      { bb_seq; bb_at; bb_captures; bb_repl; bb_acked_gen; bb_shipped }
    with
    | bb -> Ok bb
    | exception Corrupt msg -> Error msg)
