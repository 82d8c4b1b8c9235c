(* Checkpoint critical-path extraction. See critpath.mli for the
   segment model. Everything here is a pure read of the span recorder:
   the analyzer can run any number of times, on live or just-restored
   machines, without perturbing what it measures. *)

type segment = {
  sg_name : string;
  sg_track : string;
  sg_start : Duration.t;
  sg_end : Duration.t;
  sg_us : float;
  sg_pct : float;
}

type antagonist = { an_name : string; an_us : float }

type report = {
  cp_gen : int;
  cp_pgid : int;
  cp_barrier_at : Duration.t;
  cp_durable_at : Duration.t;
  cp_stop_us : float;
  cp_total_us : float;
  cp_segments : segment list;
  cp_antagonists : antagonist list;
}

let attr (s : Span.span) k = List.assoc_opt k s.Span.attrs
let attr_int s k = Option.bind (attr s k) int_of_string_opt

let span_us (s : Span.span) =
  Duration.to_us (Duration.sub s.Span.end_at s.Span.start_at)

(* Overlap of a span with a window, in microseconds. *)
let overlap_us (s : Span.span) ~from_ ~until =
  let lo = Duration.max s.Span.start_at from_ in
  let hi = Duration.min s.Span.end_at until in
  if Duration.(hi > lo) then Duration.to_us (Duration.sub hi lo) else 0.

let find_root all ?gen () =
  let with_gen =
    List.filter_map
      (fun (s : Span.span) ->
        if s.Span.name = "ckpt" && s.Span.closed then
          Option.map (fun g -> (g, s)) (attr_int s "gen")
        else None)
      all
  in
  if with_gen = [] then Error "no checkpoint spans recorded"
  else
    let flush_of g =
      List.find_opt
        (fun (s : Span.span) ->
          s.Span.name = "ckpt.flush" && attr_int s "gen" = Some g)
        all
    in
    match gen with
    | Some g -> (
      match List.find_opt (fun (g', _) -> g' = g) with_gen with
      | None -> Error (Printf.sprintf "no checkpoint span for generation %d" g)
      | Some (g, root) -> (
        match flush_of g with
        | None ->
          Error
            (Printf.sprintf
               "generation %d was never finalized (degraded, or still in \
                the pipeline — drain it first)"
               g)
        | Some fl -> Ok (g, root, fl)))
    | None -> (
      let finalized =
        List.filter_map
          (fun (g, root) -> Option.map (fun fl -> (g, root, fl)) (flush_of g))
          with_gen
      in
      match
        List.fold_left
          (fun acc ((g, _, _) as c) ->
            match acc with
            | Some (g', _, _) when g' >= g -> acc
            | _ -> Some c)
          None finalized
      with
      | None -> Error "no finalized checkpoint generation in the span tree"
      | Some c -> Ok c)

let analyze spans ?gen () =
  let all = Span.spans spans in
  match find_root all ?gen () with
  | Error e -> Error e
  | Ok (g, root, flush_span) ->
    let barrier_at = root.Span.start_at in
    let durable_at = flush_span.Span.end_at in
    let pgid = Option.value ~default:(-1) (attr_int root "pgid") in
    let total_us = Duration.to_us (Duration.sub durable_at barrier_at) in
    if total_us <= 0. then
      Error (Printf.sprintf "generation %d has an empty window" g)
    else begin
      let child name =
        List.find_opt
          (fun (s : Span.span) -> s.Span.parent = root.Span.id && s.Span.name = name)
          all
      in
      let pct us = us /. total_us *. 100. in
      let seg name track s e =
        let us = Duration.to_us (Duration.sub e s) in
        { sg_name = name; sg_track = track; sg_start = s; sg_end = e;
          sg_us = us; sg_pct = pct us }
      in
      (* Barrier phases: contiguous children of the root, in order. *)
      let barrier_end = ref barrier_at in
      let barrier_segs =
        List.filter_map
          (fun name ->
            match child ("ckpt." ^ name) with
            | Some s ->
              barrier_end := s.Span.end_at;
              Some (seg name "cpu" s.Span.start_at s.Span.end_at)
            | None -> None)
          [ "quiesce"; "serialize"; "cow_mark" ]
      in
      let stop_us =
        List.fold_left (fun acc s -> acc +. s.sg_us) 0. barrier_segs
      in
      (* The store-side commit for this generation bounds the prep
         segment (recorder serialization, put queuing) on the right. *)
      let store_flush =
        List.find_opt
          (fun (s : Span.span) ->
            s.Span.name = "store.flush" && attr_int s "gen" = Some g)
          all
      in
      let commit_entry =
        match store_flush with
        | Some s -> Duration.max s.Span.start_at !barrier_end
        | None -> !barrier_end
      in
      let prep_seg =
        if Duration.(commit_entry > !barrier_end) then
          [ seg "prep" "cpu" !barrier_end commit_entry ]
        else []
      in
      (* Device writes inside the flush window. The superblock is the
         transfer that completes exactly at durability; the binding
         stripe is the device whose last non-superblock transfer
         completes latest (it gated the superblock's not_before). *)
      let dev_writes =
        List.filter
          (fun (s : Span.span) ->
            s.Span.name = "dev.write"
            && Duration.(s.Span.end_at > commit_entry)
            && Duration.(s.Span.end_at <= durable_at))
          all
      in
      let superblock =
        List.find_opt
          (fun (s : Span.span) -> Duration.equal s.Span.end_at durable_at)
          dev_writes
      in
      let sb_start =
        match superblock with
        | Some s -> Duration.max s.Span.start_at commit_entry
        | None -> durable_at
      in
      let binding_track =
        let best = ref None in
        List.iter
          (fun (s : Span.span) ->
            let is_sb =
              match superblock with Some sb -> sb.Span.id = s.Span.id | None -> false
            in
            if (not is_sb) && Duration.(s.Span.end_at <= sb_start) then
              match !best with
              | Some (b : Span.span) when Duration.(b.Span.end_at >= s.Span.end_at) ->
                ()
              | _ -> best := Some s)
          dev_writes;
        match !best with
        | Some s -> s.Span.track
        | None -> (
          match store_flush with Some s -> s.Span.track | None -> "store")
      in
      let flush_seg =
        if Duration.(sb_start > commit_entry) then
          [ seg ("flush." ^ binding_track) binding_track commit_entry sb_start ]
        else []
      in
      let sb_seg =
        match superblock with
        | Some s when Duration.(durable_at > sb_start) ->
          [ seg "superblock" s.Span.track sb_start durable_at ]
        | _ ->
          (* No distinguishable superblock transfer (e.g. a volatile
             cache's synchronous flush): fold the tail into the flush
             segment so the chain still covers the window. *)
          if Duration.(durable_at > sb_start) then
            [ seg ("flush." ^ binding_track) binding_track sb_start durable_at ]
          else []
      in
      let segments = barrier_segs @ prep_seg @ flush_seg @ sb_seg in
      (* Antagonists: work overlapping the window without being on the
         chain. Clipped to the window. *)
      let sum_overlap name =
        List.fold_left
          (fun acc (s : Span.span) ->
            if s.Span.name = name then
              acc +. overlap_us s ~from_:barrier_at ~until:durable_at
            else acc)
          0. all
      in
      let repl_us =
        List.fold_left
          (fun acc (s : Span.span) ->
            if s.Span.name = "repl.ship" then
              match attr_int s "gen" with
              | Some g' when g' = g -> acc +. span_us s
              | _ -> acc +. overlap_us s ~from_:barrier_at ~until:durable_at
            else acc)
          0. all
      in
      (* Per-I/O-class rows: device traffic sharing the window with the
         chain, keyed by the scheduler class stamped on each transfer.
         The generation's own flush transfers (the [dev_writes] chain
         set) are excluded — only competing traffic is an antagonist. *)
      let chain_ids = List.map (fun (s : Span.span) -> s.Span.id) dev_writes in
      let cls_overlap cname =
        List.fold_left
          (fun acc (s : Span.span) ->
            if
              (s.Span.name = "dev.read" || s.Span.name = "dev.write")
              && attr s "cls" = Some cname
              && not (List.mem s.Span.id chain_ids)
            then acc +. overlap_us s ~from_:barrier_at ~until:durable_at
            else acc)
          0. all
      in
      let antagonists =
        [ ("backpressure", sum_overlap "ckpt.backpressure");
          ("recorder", sum_overlap "ckpt.recorder");
          ("repl_ship", repl_us);
          ("oob_writes", sum_overlap "dev.oob");
          ("io_fg", cls_overlap "fg");
          ("io_flush", cls_overlap "flush");
          ("io_bg", cls_overlap "bg");
          ("io_deadline", cls_overlap "deadline") ]
        |> List.filter (fun (_, us) -> us > 0.)
        |> List.map (fun (an_name, an_us) -> { an_name; an_us })
        |> List.sort (fun a b -> compare b.an_us a.an_us)
      in
      Ok
        {
          cp_gen = g;
          cp_pgid = pgid;
          cp_barrier_at = barrier_at;
          cp_durable_at = durable_at;
          cp_stop_us = stop_us;
          cp_total_us = total_us;
          cp_segments = segments;
          cp_antagonists = antagonists;
        }
    end

let top_antagonist r =
  match r.cp_antagonists with [] -> None | a :: _ -> Some a

(* Metric names must be stable identifiers: segment names embed device
   tracks ("flush.nvme.0"), which are already dot-safe. *)
let publish m r =
  Metrics.incr (Metrics.counter m "ckpt.critpath.analyses");
  Metrics.set_int (Metrics.gauge m "ckpt.critpath.gen") r.cp_gen;
  Metrics.set (Metrics.gauge m "ckpt.critpath.stop_us") r.cp_stop_us;
  Metrics.set (Metrics.gauge m "ckpt.critpath.total_us") r.cp_total_us;
  List.iter
    (fun s ->
      Metrics.set (Metrics.gauge m ("ckpt.critpath." ^ s.sg_name ^ "_pct")) s.sg_pct)
    r.cp_segments;
  List.iter
    (fun a ->
      Metrics.set
        (Metrics.gauge m ("ckpt.critpath.antagonist." ^ a.an_name ^ "_us"))
        a.an_us)
    r.cp_antagonists;
  match top_antagonist r with
  | Some a -> Metrics.incr (Metrics.counter m ("ckpt.critpath.top." ^ a.an_name))
  | None -> ()

let render r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "critical path: gen %d (pgroup %d), barrier %.1fus -> durable %.1fus \
        (%.1fus total, stop %.1fus)\n"
       r.cp_gen r.cp_pgid
       (Duration.to_us r.cp_barrier_at)
       (Duration.to_us r.cp_durable_at)
       r.cp_total_us r.cp_stop_us);
  Buffer.add_string buf
    (Printf.sprintf "  %-20s %-10s %12s %7s\n" "segment" "track" "us" "blame");
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "  %-20s %-10s %12.1f %6.1f%% %s\n" s.sg_name s.sg_track
           s.sg_us s.sg_pct
           (String.make (int_of_float (s.sg_pct /. 2.5)) '#')))
    r.cp_segments;
  (match r.cp_antagonists with
  | [] -> Buffer.add_string buf "  antagonists: none\n"
  | ants ->
    Buffer.add_string buf "  antagonists (overlapping the window):\n";
    List.iter
      (fun a ->
        Buffer.add_string buf
          (Printf.sprintf "    %-18s %12.1f us\n" a.an_name a.an_us))
      ants;
    match ants with
    | top :: _ ->
      Buffer.add_string buf (Printf.sprintf "  top antagonist: %s\n" top.an_name)
    | [] -> ());
  Buffer.contents buf

let to_json r =
  let num = Json.fixed 3 in
  let at d = num (Duration.to_us d) in
  let segment s =
    Json.Obj
      [ ("name", String s.sg_name); ("track", String s.sg_track);
        ("start_us", at s.sg_start); ("end_us", at s.sg_end); ("us", num s.sg_us);
        ("pct", num s.sg_pct) ]
  in
  let antagonist a = Json.Obj [ ("name", String a.an_name); ("us", num a.an_us) ] in
  Json.to_string
    (Obj
       [ ("gen", Int r.cp_gen); ("pgid", Int r.cp_pgid);
         ("barrier_at_us", at r.cp_barrier_at); ("durable_at_us", at r.cp_durable_at);
         ("stop_us", num r.cp_stop_us); ("total_us", num r.cp_total_us);
         ("segments", List (List.map segment r.cp_segments));
         ("antagonists", List (List.map antagonist r.cp_antagonists));
         ( "top_antagonist",
           match top_antagonist r with Some a -> String a.an_name | None -> Null ) ])
