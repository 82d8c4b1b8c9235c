open Aurora_simtime
open Aurora_device
open Aurora_objstore

(* --- wire frames ------------------------------------------------------ *)

let frame_magic = "AURORA-REPL-v2"

(* Stop-and-wait ARQ: one data frame in flight, retransmits reuse its
   sequence number, ACK/NAK echo it. The session id fences frames from
   a dead incarnation of the session (a re-established session must
   not honor data still in flight from before a crash). *)
type payload =
  | Data of {
      seq : int;
      primary_gen : Store.gen;
      base : Store.gen option;  (* primary numbering; None = full image *)
      pgid : int;
      corr : string;            (* trace-correlation id for this generation *)
      image : string;
    }
  | Ack of { seq : int; primary_gen : Store.gen }
  | Nak of { seq : int; have : Store.gen option }

(* Frame = the sealed session id and payload. The seal's checksum is
   the same FNV-1a the image format uses; a bit flipped anywhere in the
   frame (or a truncated one) fails decode and the frame is treated as
   lost — retransmission recovers it. *)
let encode_frame ~sid p =
  let w = Serial.writer () in
  Serial.w_int w sid;
  (match p with
   | Data { seq; primary_gen; base; pgid; corr; image } ->
     Serial.w_u8 w 1;
     Serial.w_int w seq;
     Serial.w_int w primary_gen;
     Serial.w_option w Serial.w_int base;
     Serial.w_int w pgid;
     Serial.w_string w corr;
     Serial.w_string w image
   | Ack { seq; primary_gen } ->
     Serial.w_u8 w 2;
     Serial.w_int w seq;
     Serial.w_int w primary_gen
   | Nak { seq; have } ->
     Serial.w_u8 w 3;
     Serial.w_int w seq;
     Serial.w_option w Serial.w_int have);
  Serial.seal ~magic:frame_magic (Serial.contents w)

let decode_frame raw =
  Serial.unseal_with ~magic:frame_magic raw (fun r ->
      let sid = Serial.r_int r in
      match Serial.r_u8 r with
      | 1 ->
        let seq = Serial.r_int r in
        let primary_gen = Serial.r_int r in
        let base = Serial.r_option r Serial.r_int in
        let pgid = Serial.r_int r in
        let corr = Serial.r_string r in
        let image = Serial.r_string r in
        (sid, Data { seq; primary_gen; base; pgid; corr; image })
      | 2 ->
        let seq = Serial.r_int r in
        let primary_gen = Serial.r_int r in
        (sid, Ack { seq; primary_gen })
      | 3 ->
        let seq = Serial.r_int r in
        let have = Serial.r_option r Serial.r_int in
        (sid, Nak { seq; have })
      | n -> raise (Serial.Corrupt (Printf.sprintf "replica frame tag %d" n)))

(* --- sessions --------------------------------------------------------- *)

exception Session_failed of string

let () =
  Printexc.register_printer (function
    | Session_failed msg -> Some (Printf.sprintf "Replica.Session_failed(%s)" msg)
    | _ -> None)

type stats = {
  acked : int;
  retransmits : int;
  resyncs : int;
  duplicate_frames : int;
  corrupt_rejects : int;
  torn_imports : int;
  gave_up : int;
  full_images : int;
  delta_images : int;
  wire_bytes : int;
}

let zero_stats =
  { acked = 0; retransmits = 0; resyncs = 0; duplicate_frames = 0; corrupt_rejects = 0;
    torn_imports = 0; gave_up = 0; full_images = 0; delta_images = 0; wire_bytes = 0 }

type t = {
  link : Netlink.t;
  primary_side : Netlink.side;
  primary : Store.t;
  mutable standby : Store.t;
  clock : Clock.t;
  sid : int;
  pgid : int;  (* the group whose generations this session ships *)
  ack_timeout : Duration.t;
  max_attempts : int;
  prng : Prng.t;  (* retransmission jitter *)
  obs : Obs.t option;
  mutable next_seq : int;
  (* primary-side transmitter state *)
  mutable acked : Store.gen option;  (* last primary gen acked durable *)
  mutable state : [ `Idle | `Degraded ];
  (* standby-side receiver state (both ends live in one simulated
     universe, so the session object carries both) *)
  mutable rx_last_seq : int;
  mutable map : (Store.gen * Store.gen) list;  (* primary -> standby, ascending *)
  mutable st : stats;
}

(* The durable name records the session's group and carries the
   trace-correlation id the primary put on the wire: a session resumes
   only from its own group's imports, and a timeline merged after
   failover matches the standby's imports to the primary's ship spans
   without the session object. *)
let name_prefix = "repl.gen:"
let repl_gen_name ~pgid ~corr g = Printf.sprintf "%s%d/%d@%s" name_prefix pgid g corr

let parse_name name =
  let plen = String.length name_prefix in
  match (String.index_opt name '/', String.index_opt name '@') with
  | Some i, Some j when String.starts_with ~prefix:name_prefix name && plen < i && i < j -> (
    let sub a b = String.sub name a (b - a) in
    match (int_of_string_opt (sub plen i), int_of_string_opt (sub (i + 1) j)) with
    | Some pgid, Some g -> Some (pgid, g, sub (j + 1) (String.length name))
    | _ -> None)
  | _ -> None

let parse_repl_gen_name name = Option.map (fun (_, g, _) -> g) (parse_name name)
let parse_repl_corr name = Option.map (fun (_, _, c) -> c) (parse_name name)

let corr_id t ~gen = Printf.sprintf "s%d-g%d" t.sid gen

(* The durable session state: which primary generation each standby
   generation holds, recorded as generation names at import time. Only
   the group's own names count: another group's imports into a shared
   store are no base for this one's deltas. *)
let scan_mapping standby ~pgid =
  Store.named standby
  |> List.filter_map (fun (name, sgen) ->
      match parse_name name with
      | Some (p, pgen, _) when p = pgid -> Some (pgen, sgen)
      | Some _ | None -> None)
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let newest map = match List.rev map with p :: _ -> Some p | [] -> None

(* Ceiling of the doubling retransmission timeout. *)
let max_backoff = Duration.milliseconds 40

let bump t f = t.st <- f t.st

let metric_incr t name =
  Option.iter (fun (o : Obs.t) -> Metrics.incr (Metrics.counter o.Obs.metrics name)) t.obs

let establish ?(ack_timeout = Duration.milliseconds 5) ?(max_attempts = 10) ?obs
    ~sid ~pgid ~link ~primary_side ~primary ~standby () =
  if max_attempts < 1 then invalid_arg "Replica.establish: max_attempts < 1";
  let map = scan_mapping standby ~pgid in
  (* A standby that acknowledged generations this primary no longer
     holds is AHEAD of it: the primary crashed before those became
     durable and recovered to an older committed prefix. Generation
     numbers past that prefix may be reused with different content, so
     nothing on such a standby can be trusted as a delta base.
     Quarantine the torn session state — reformat and resync in
     full. *)
  let ahead =
    match Store.latest primary with
    | None -> map <> []
    | Some pl -> List.exists (fun (p, _) -> p > pl) map
  in
  let standby, map =
    if ahead then (Store.format ~dev:(Store.device standby) (), [])
    else (standby, map)
  in
  (match obs with
   | Some o when ahead ->
     Metrics.incr (Metrics.counter o.Obs.metrics "repl.quarantines")
   | _ -> ());
  {
    link; primary_side; primary; standby;
    clock = Devarray.clock (Store.device primary);
    sid; pgid;
    ack_timeout; max_attempts;
    prng = Prng.create ~seed:(Int64.of_int (0x5EED + sid));
    obs;
    next_seq = 1;
    acked = Option.map fst (newest map);
    state = `Idle;
    rx_last_seq = 0;
    map;
    st = zero_stats;
  }

let state t = t.state
let stats t = t.st
let link t = t.link
let standby_store t = t.standby
let acked_gen t = t.acked
let mapping t = t.map
let standby_latest t = newest t.map

(* The newest primary generation the destination applied. *)
let rx_latest t = Option.map fst (newest t.map)

let lag t =
  let gens = Store.generations t.primary in
  match t.acked with
  | None -> List.length gens
  | Some a -> List.length (List.filter (fun g -> g > a) gens)

let standby_side t : Netlink.side =
  match t.primary_side with `A -> `B | `B -> `A

let send_frame t ~from_ p =
  let raw = encode_frame ~sid:t.sid p in
  bump t (fun s -> { s with wire_bytes = s.wire_bytes + String.length raw });
  (match t.obs with
   | Some o when Probe.enabled o.Obs.probes Repl_msg ->
     let op, gen, pgid =
       match p with
       | Data { primary_gen; pgid; _ } -> ("data", primary_gen, pgid)
       | Ack { primary_gen; _ } -> ("ack", primary_gen, -1)
       | Nak { have; _ } -> ("nak", Option.value have ~default:(-1), -1)
     in
     Probe.fire o.Obs.probes Repl_msg ~dev:"link" ~op ~gen ~pgid ~us:0.0
       ~blocks:(String.length raw)
   | Some _ | None -> ());
  ignore (Netlink.send t.link ~from_ raw)

(* --- standby end ------------------------------------------------------ *)

(* The primary generation a delta may be cut against: the last one
   this session imported, while that import is still the store's
   newest generation. An import builds on the newest generation, which
   then holds the base exactly as this session imported it. *)
let delta_base t =
  match rx_latest t with
  | Some p when Store.latest t.standby = List.assoc_opt p t.map -> Some p
  | Some _ | None -> None

let standby_apply t ~seq ~primary_gen ~base ~corr ~image =
  if seq <= t.rx_last_seq then begin
    (* Duplicate (retransmit of something already applied, or a link
       duplication): re-ACK so the primary can move on; never
       re-import. *)
    bump t (fun s -> { s with duplicate_frames = s.duplicate_frames + 1 });
    metric_incr t "repl.duplicate_frames";
    match rx_latest t with
    | Some g -> send_frame t ~from_:(standby_side t) (Ack { seq; primary_gen = g })
    | None -> send_frame t ~from_:(standby_side t) (Nak { seq; have = None })
  end
  else if List.mem_assoc primary_gen t.map then begin
    (* A fresh frame for a generation already applied durably: the ACK
       was lost and the primary gave up on that ship. Re-ACK instead of
       re-importing. *)
    t.rx_last_seq <- seq;
    bump t (fun s -> { s with duplicate_frames = s.duplicate_frames + 1 });
    metric_incr t "repl.duplicate_frames";
    send_frame t ~from_:(standby_side t) (Ack { seq; primary_gen })
  end
  else if
    (* A delta only applies on top of exactly the generation it was cut
       against; anything else (standby lost state in a crash, primary
       resumed an older session, another writer's generation on top) is
       NAKed with the base the standby can take, so the primary can
       resync from it, or in full when there is none. *)
    match base with None -> false | Some _ -> base <> delta_base t
  then send_frame t ~from_:(standby_side t) (Nak { seq; have = delta_base t })
  else begin
    match
      (* ACK durability, not arrival: wait for the imported
         generation's superblock, record the primary-generation name
         durably, then acknowledge. *)
      let sgen, durable = Sendrecv.import t.standby image in
      Store.wait_durable t.standby durable;
      Store.name_generation t.standby sgen (repl_gen_name ~pgid:t.pgid ~corr primary_gen);
      sgen
    with
    | exception Restore.Error (Restore.Bad_image _) ->
      (* Integrity-verified imports only: the torn image never reaches
         the store (the open generation, if any, is aborted) and the
         primary is told to resend. *)
      (try Store.abort_generation t.standby with _ -> ());
      bump t (fun s -> { s with corrupt_rejects = s.corrupt_rejects + 1 });
      metric_incr t "repl.corrupt_rejects";
      send_frame t ~from_:(standby_side t) (Nak { seq; have = delta_base t })
    | exception Store.Fail _ ->
      (* The standby's own media failed mid-import: abort the torn
         generation and NAK — a retransmit retries the import (transient
         device faults heal on retry; persistent ones keep the session
         degraded rather than ack anything unverified). *)
      (try Store.abort_generation t.standby with _ -> ());
      bump t (fun s -> { s with torn_imports = s.torn_imports + 1 });
      metric_incr t "repl.torn_imports";
      send_frame t ~from_:(standby_side t) (Nak { seq; have = delta_base t })
    | sgen ->
      t.rx_last_seq <- seq;
      let older = List.map snd t.map in
      t.map <- [ (primary_gen, sgen) ];
      send_frame t ~from_:(standby_side t) (Ack { seq; primary_gen });
      (* The newest import is the only delta base, and what failover and
         restore use; it holds the older imports' pages through the COW
         tree, so they go. Other groups' generations stay. *)
      if older <> [] then
        let keep = List.filter (fun g -> not (List.mem g older)) (Store.generations t.standby) in
        ignore (Store.gc t.standby ~keep)
  end

let pump_standby t =
  let side = standby_side t in
  let rec loop () =
    match Netlink.recv t.link ~side with
    | None -> ()
    | Some raw ->
      (match decode_frame raw with
       | Error _ ->
         bump t (fun s -> { s with corrupt_rejects = s.corrupt_rejects + 1 });
         metric_incr t "repl.corrupt_rejects"
       | Ok (sid, Data { seq; primary_gen; base; corr; image; pgid = _ }) when sid = t.sid ->
         standby_apply t ~seq ~primary_gen ~base ~corr ~image
       | Ok _ -> ());
      loop ()
  in
  loop ()

(* --- primary end ------------------------------------------------------ *)

let pump_primary t ~want_seq =
  let rec loop verdict =
    match Netlink.recv t.link ~side:t.primary_side with
    | None -> verdict
    | Some raw ->
      let verdict =
        match decode_frame raw with
        | Error _ ->
          bump t (fun s -> { s with corrupt_rejects = s.corrupt_rejects + 1 });
          metric_incr t "repl.corrupt_rejects";
          verdict
        | Ok (sid, _) when sid <> t.sid -> verdict
        | Ok (_, Ack { seq; primary_gen }) ->
          (match t.acked with
           | Some a when a >= primary_gen -> ()
           | _ -> t.acked <- Some primary_gen);
          if seq = want_seq then `Acked else verdict
        | Ok (_, Nak { seq; have }) ->
          if seq = want_seq then begin
            metric_incr t "repl.naks";
            (* The NAK carries the standby's view: adopt it as the last
               common generation. *)
            t.acked <- have;
            `Nak
          end
          else verdict
        | Ok (_, Data _) -> verdict
      in
      loop verdict
  in
  loop `Nothing

(* Advance the clock to the next frame arrival on either side, bounded
   by [deadline]. [false] = nothing arrives before the deadline (the
   clock is then at the deadline: a retransmission timeout). *)
let step_to_next_event t ~deadline =
  let next =
    match
      ( Netlink.next_arrival t.link ~side:(standby_side t),
        Netlink.next_arrival t.link ~side:t.primary_side )
    with
    | None, None -> None
    | Some a, None | None, Some a -> Some a
    | Some a, Some b -> Some (Duration.min a b)
  in
  match next with
  | Some a when Duration.(a <= deadline) ->
    Clock.advance_to t.clock a;
    true
  | Some _ | None ->
    Clock.advance_to t.clock deadline;
    false

(* --- shipping --------------------------------------------------------- *)

type ship_report = {
  sh_gen : Store.gen;
  sh_outcome : [ `Acked | `Gave_up | `Skipped ];
  sh_mode : [ `Delta of Store.gen | `Full ];
  sh_attempts : int;
  sh_rtt : Duration.t;
  sh_bytes : int;
}

(* Delta against the last acked generation when the primary still
   holds it; a gap (history GC outran the standby) forces a full
   resync. *)
let choose_mode t ~gen =
  match t.acked with
  | Some a when a < gen && List.mem a (Store.generations t.primary) -> `Delta a
  | Some _ | None -> `Full

let ship t ~gen =
  let pgid = t.pgid in
  let already = match t.acked with Some a -> gen <= a | None -> false in
  if already then
    { sh_gen = gen; sh_outcome = `Skipped; sh_mode = `Full; sh_attempts = 0;
      sh_rtt = Duration.zero; sh_bytes = 0 }
  else begin
    let started = Clock.now t.clock in
    metric_incr t "repl.ships";
    let resyncs = ref 0 in
    let attempts = ref 0 in
    let mode = ref (choose_mode t ~gen) in
    (match (!mode, t.acked) with
     | `Full, Some _ ->
       (* Gap: the base the standby holds is gone from the primary. *)
       incr resyncs;
       bump t (fun s -> { s with resyncs = s.resyncs + 1 });
       metric_incr t "repl.resyncs"
     | _ -> ());
    let bytes = ref 0 in
    let build () =
      let base = match !mode with `Delta a -> Some a | `Full -> None in
      (match !mode with
       | `Full -> bump t (fun s -> { s with full_images = s.full_images + 1 })
       | `Delta _ -> bump t (fun s -> { s with delta_images = s.delta_images + 1 }));
      let image = Sendrecv.export t.primary ~gen ~pgid ?base () in
      bytes := String.length image;
      let seq = t.next_seq in
      t.next_seq <- t.next_seq + 1;
      (seq, Data { seq; primary_gen = gen; base; pgid; corr = corr_id t ~gen; image })
    in
    let seq = ref 0 and frame = ref (Nak { seq = 0; have = None }) in
    let transmit () =
      let s, f = build () in
      seq := s;
      frame := f;
      attempts := 1;
      send_frame t ~from_:t.primary_side f
    in
    transmit ();
    let timeout = ref t.ack_timeout in
    let jitter () =
      (* Deterministic jitter, up to a quarter of the current timeout:
         decorrelates retransmissions from periodic partition edges. *)
      Duration.of_us_float (Prng.float t.prng (Duration.to_us !timeout /. 4.))
    in
    let rec await deadline =
      pump_standby t;
      match pump_primary t ~want_seq:!seq with
      | `Acked -> `Acked
      | `Nak ->
        if !resyncs >= 4 then `Gave_up
        else begin
          (* Resync from the last common generation the NAK reported
             (full when there is none usable). *)
          incr resyncs;
          bump t (fun s -> { s with resyncs = s.resyncs + 1 });
          metric_incr t "repl.resyncs";
          mode := choose_mode t ~gen;
          transmit ();
          timeout := t.ack_timeout;
          await (Duration.add (Clock.now t.clock) (Duration.add !timeout (jitter ())))
        end
      | `Nothing ->
        if step_to_next_event t ~deadline then await deadline
        else if !attempts >= t.max_attempts then `Gave_up
        else begin
          (* Retransmission timeout: same frame, same sequence number,
             exponential backoff plus jitter — all simulated time. *)
          incr attempts;
          bump t (fun s -> { s with retransmits = s.retransmits + 1 });
          metric_incr t "repl.retransmits";
          send_frame t ~from_:t.primary_side !frame;
          timeout := Duration.min max_backoff (Duration.scale !timeout 2);
          await (Duration.add (Clock.now t.clock) (Duration.add !timeout (jitter ())))
        end
    in
    let outcome =
      await (Duration.add (Clock.now t.clock) (Duration.add !timeout (jitter ())))
    in
    let rtt = Duration.sub (Clock.now t.clock) started in
    let outcome_name = match outcome with `Acked -> "acked" | `Gave_up -> "gave_up" in
    (match outcome with
     | `Acked ->
       t.state <- `Idle;
       bump t (fun s -> { s with acked = s.acked + 1 })
     | `Gave_up ->
       t.state <- `Degraded;
       bump t (fun s -> { s with gave_up = s.gave_up + 1 }));
    (match t.obs with
     | None -> ()
     | Some { Obs.metrics; spans; probes; recorder } ->
       let corr = corr_id t ~gen in
       Metrics.incr (Metrics.counter metrics ("repl." ^ outcome_name));
       if outcome = `Acked then
         Metrics.observe_duration (Metrics.histogram metrics "repl.ack_rtt_us") rtt;
       Metrics.set_int (Metrics.gauge metrics "repl.lag") (lag t);
       if Probe.enabled probes Repl_msg then
         Probe.fire probes Repl_msg ~dev:"link" ~op:"ship" ~gen ~pgid
           ~us:(Duration.to_us rtt) ~blocks:!bytes;
       Span.record spans ~track:"repl" ~name:"repl.ship"
         ~attrs:
           [ ("gen", string_of_int gen);
             ("corr", corr);
             ("mode", match !mode with `Full -> "full" | `Delta b -> Printf.sprintf "delta(%d)" b);
             ("attempts", string_of_int !attempts);
             ("outcome", outcome_name) ]
         ~start_at:started ~end_at:(Clock.now t.clock) ();
       (* Ship/ack ring events carry the correlation id [sls timeline] joins on. *)
       Recorder.note_ship recorder ~gen ~corr ~outcome:outcome_name;
       match outcome with
       | `Acked -> Recorder.note_ack recorder ~gen ~corr
       | `Gave_up ->
         Recorder.note_transition recorder ~subsystem:"repl"
           (Printf.sprintf "session degraded: generation %d unacknowledged" gen));
    { sh_gen = gen; sh_outcome = (outcome :> [ `Acked | `Gave_up | `Skipped ]);
      sh_mode = !mode; sh_attempts = !attempts; sh_rtt = rtt; sh_bytes = !bytes }
  end

let ship_exn t ~gen =
  let r = ship t ~gen in
  if r.sh_outcome = `Gave_up then
    raise
      (Session_failed
         (Printf.sprintf "generation %d not acknowledged after %d attempts" gen
            r.sh_attempts));
  r

(* --- standby failure -------------------------------------------------- *)

let crash_standby t =
  let dev = Store.device t.standby in
  Devarray.crash dev;
  let s = Store.open_exn ~dev in
  t.standby <- s;
  t.map <- scan_mapping s ~pgid:t.pgid
