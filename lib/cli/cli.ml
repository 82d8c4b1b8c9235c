open Aurora_simtime
open Aurora_device
open Aurora_proc
open Aurora_objstore
open Aurora_sls
open Cmdliner

(* --- the universe file ------------------------------------------------ *)

(* What survives between invocations: the NVMe device (clock included)
   plus a small registry of applications (pgid order matters: groups
   are recreated in it so pgroup ids are stable). *)
type app_entry = {
  app_name : string;
  app_kind : string;  (* "counter" | "kv" | "func" *)
  app_cid : int;
  mutable app_backends : string list; (* "disk" (primary), "memory" *)
}

type universe_file = {
  uf_nvme : Devarray.t;
  uf_apps : app_entry list;
}

type universe = {
  machine : Machine.t;
  mutable apps : (app_entry * Types.pgroup) list;
}

let default_path = "aurora.universe"

let write_universe_file path ~nvme ~apps =
  (* Detach instrumentation before marshaling: the devices' spans and
     metric cells are per-boot state (Machine.boot rebinds them), and
     marshaling them would drag the whole retained trace into the
     universe file. *)
  Devarray.set_obs nvme None;
  let oc = open_out_bin path in
  Marshal.to_channel oc { uf_nvme = nvme; uf_apps = apps } [];
  close_out oc

(* Checkpoint every group that has a live process; with [durable], wait
   for each epoch's writes to land. *)
let checkpoint_running (u : universe) ~durable =
  List.iter
    (fun (_, g) ->
      if Types.member_pids u.machine.Machine.kernel g <> [] then begin
        let b = Machine.checkpoint_now u.machine g () in
        if durable then
          Store.wait_durable u.machine.Machine.disk_store b.Types.durable_at
      end)
    u.apps

let save path (u : universe) =
  (* Quiesce: a final checkpoint of each group, fully durable, so the
     device alone can resurrect everything. *)
  checkpoint_running u ~durable:true;
  write_universe_file path ~nvme:u.machine.Machine.nvme ~apps:(List.map fst u.apps)

(* Demo application programs live in Aurora_apps (linked in); the
   counter comes from here. *)
let () =
  Program.register ~name:"cli/counter" (fun k p th ->
      let ctx = th.Thread.context in
      if ctx.Context.pc = 0 then begin
        let e = Aurora_proc.Syscall.mmap_anon k p ~npages:4 in
        Context.set_reg_int ctx 1 e.Aurora_vm.Vmmap.start_vpn;
        ctx.Context.pc <- 1;
        Program.Continue
      end
      else begin
        let n = Context.reg_int ctx 2 + 1 in
        Context.set_reg_int ctx 2 n;
        Syscall.mem_write k p ~vpn:(Context.reg_int ctx 1 + (n mod 4)) ~offset:0
          ~value:(Int64.of_int n);
        Program.Continue
      end)

let spawn_app (m : Machine.t) (entry : app_entry) =
  let k = m.Machine.kernel in
  Kernel.ensure_container k ~cid:entry.app_cid ~name:entry.app_name;
  (match entry.app_kind with
   | "counter" ->
     ignore
       (Kernel.spawn k ~container:entry.app_cid ~name:entry.app_name
          ~program:"cli/counter" ())
   | "kv" ->
     let cfg =
       Aurora_apps.Kvstore.default_config ~mode:Aurora_apps.Kvstore.Aurora
         ~nkeys:65536 ()
     in
     ignore (Aurora_apps.Kvstore.spawn k ~container:entry.app_cid cfg)
   | "func" ->
     ignore
       (Aurora_apps.Serverless.spawn k ~container:entry.app_cid
          (Aurora_apps.Serverless.default_config ()))
   | kind -> failwith (Printf.sprintf "unknown app kind %S" kind));
  ()

let register_group (u : universe) (entry : app_entry) =
  let g = Machine.persist u.machine (`Container entry.app_cid) in
  (* Secondary backends are re-attached per the registry ("disk" is
     the primary and always present). *)
  if List.mem "memory" entry.app_backends then
    Machine.attach u.machine g u.machine.Machine.mem_store;
  u.apps <- u.apps @ [ (entry, g) ];
  g

let load path =
  if not (Sys.file_exists path) then
    failwith (Printf.sprintf "no universe at %s (run `sls init` first)" path);
  let ic = open_in_bin path in
  let (uf : universe_file) = (Marshal.from_channel ic : universe_file) in
  close_in ic;
  let machine =
    match Machine.boot ~nvme:uf.uf_nvme () with
    | Ok m -> m
    | Error e -> raise (Store.Fail e)
  in
  Machine.enable_sls_calls machine;
  let u = { machine; apps = [] } in
  (* Recreate the groups in order (stable pgids), then resurrect each
     application from its latest checkpoint. *)
  List.iter
    (fun entry ->
      let g = register_group u entry in
      match Store.latest machine.Machine.disk_store with
      | Some latest -> (
        g.Types.last_gen <- Some latest;
        try ignore (Machine.restore_group machine g ())
        with Failure _ | Invalid_argument _ | Restore.Error _ ->
          (* This group never checkpointed into the store. *)
          g.Types.last_gen <- None)
      | None -> ())
    uf.uf_apps;
  u

let fresh () =
  let machine = Machine.create () in
  Machine.enable_sls_calls machine;
  { machine; apps = [] }

(* --- command implementations ------------------------------------------ *)

let say fmt = Printf.printf (fmt ^^ "\n%!")
let say_json j = say "%s" (Json.to_string j)
let jopt f = function Some v -> f v | None -> Json.Null
let jints l = Json.List (List.map (fun i -> Json.Int i) l)

let cmd_init path =
  let u = fresh () in
  save path u;
  say "initialized universe at %s" path;
  0

let cmd_spawn path kind name interval_ms =
  let u = load path in
  let cid = List.length u.apps + 1 in
  let entry =
    { app_name = name; app_kind = kind; app_cid = cid; app_backends = [ "disk" ] }
  in
  spawn_app u.machine entry;
  let g = register_group u entry in
  g.Types.interval <- Duration.milliseconds interval_ms;
  (* Let it initialize and take its first checkpoints. *)
  Machine.run u.machine (Duration.milliseconds (3 * interval_ms));
  say "spawned %s (%s) in container %d; persisted every %d ms" name kind cid
    interval_ms;
  save path u;
  0

let cmd_run path ms =
  let u = load path in
  Machine.run u.machine (Duration.milliseconds ms);
  say "advanced %d ms (now t=%s)" ms
    (Format.asprintf "%a" Duration.pp (Machine.now u.machine));
  save path u;
  0

let cmd_ps path =
  let u = load path in
  say "%6s %-16s %10s %-8s" "PID" "NAME" "CONTAINER" "STATE";
  List.iter
    (fun (pid, name, cid, state) -> say "%6d %-16s %10d %-8s" pid name cid state)
    (Machine.ps u.machine);
  say "";
  say "%6s %-16s %10s %-10s" "PGID" "APP" "INTERVAL" "LAST-GEN";
  List.iter
    (fun (entry, g) ->
      say "%6d %-16s %8.0fms %-10s" g.Types.pgid entry.app_name
        (Duration.to_ms g.Types.interval)
        (match g.Types.last_gen with Some n -> string_of_int n | None -> "-"))
    u.apps;
  0

let cmd_checkpoint path name =
  let u = load path in
  List.iter
    (fun (entry, g) ->
      let b = Machine.checkpoint_now u.machine g ?name () in
      say "%s: generation %d (stop %.1f us, %d pages)" entry.app_name b.Types.gen
        (Duration.to_us b.Types.stop_time)
        b.Types.pages_captured)
    u.apps;
  save path u;
  0

let cmd_gens path =
  let u = load path in
  let store = u.machine.Machine.disk_store in
  say "generations: %s"
    (String.concat ", " (List.map string_of_int (Store.generations store)));
  List.iter (fun (name, g) -> say "  %-20s -> generation %d" name g) (Store.named store);
  0

let cmd_restore path gen =
  let u = load path in
  List.iter
    (fun (entry, g) ->
      let pids, breakdown = Machine.restore_group u.machine g ?gen () in
      say "%s: restored pids [%s] in %.1f us" entry.app_name
        (String.concat ";" (List.map string_of_int pids))
        (Duration.to_us breakdown.Types.total_latency))
    u.apps;
  save path u;
  0

let find_app u pgid =
  match List.filter (fun (_, g) -> pgid = None || pgid = Some g.Types.pgid) u.apps with
  | (e, g) :: _ -> (e, g)
  | [] -> failwith "no such persistence group"

let cmd_send path out pgid =
  let u = load path in
  let entry, g = find_app u pgid in
  let gen =
    match g.Types.last_gen with
    | Some gen -> gen
    | None -> failwith "group has no checkpoint yet"
  in
  let image =
    Sendrecv.export u.machine.Machine.disk_store ~gen ~pgid:g.Types.pgid ()
  in
  let oc = open_out_bin out in
  output_string oc image;
  close_out oc;
  say "wrote %s: %d KiB image of %s (generation %d)" out
    (String.length image / 1024)
    entry.app_name gen;
  0

let cmd_recv path in_file =
  let u = load path in
  let ic = open_in_bin in_file in
  let image = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let gen, durable = Sendrecv.import u.machine.Machine.disk_store image in
  Store.wait_durable u.machine.Machine.disk_store durable;
  say "imported %s as generation %d (use `sls restore --gen %d`)" in_file gen gen;
  save path u;
  0

let cmd_attach path pgid backend =
  let u = load path in
  let entry, g = find_app u pgid in
  (match backend with
   | "memory" ->
     if not (List.mem "memory" entry.app_backends) then begin
       entry.app_backends <- entry.app_backends @ [ "memory" ];
       Machine.attach u.machine g u.machine.Machine.mem_store
     end
   | "disk" -> () (* the primary; always attached *)
   | other -> failwith (Printf.sprintf "unknown backend %S (disk|memory)" other));
  say "%s: backends now [%s]" entry.app_name (String.concat "; " entry.app_backends);
  save path u;
  0

let cmd_detach path pgid backend =
  let u = load path in
  let entry, g = find_app u pgid in
  (match backend with
   | "memory" ->
     entry.app_backends <- List.filter (fun b -> b <> "memory") entry.app_backends;
     Machine.detach u.machine g u.machine.Machine.mem_store
   | "disk" -> failwith "cannot detach the primary disk backend"
   | other -> failwith (Printf.sprintf "unknown backend %S" other));
  say "%s: backends now [%s]" entry.app_name (String.concat "; " entry.app_backends);
  save path u;
  0

let cmd_fsck path scrub =
  let u = load path in
  let r = Store.fsck ~scrub u.machine.Machine.disk_store in
  if scrub then say "scrubbed %d blocks" r.Store.scanned_blocks;
  List.iter
    (fun (block, origin) ->
      say "HEALED: block %d (from %s)" block
        (match origin with Store.Mirror -> "mirror" | Store.Dedup_copy -> "dedup copy"))
    r.Store.healed;
  List.iter (fun (g, reason) -> say "LOST: generation %d (%s)" g reason) r.Store.lost;
  List.iter (fun p -> say "PROBLEM: %s" p) r.Store.problems;
  if Store.fsck_ok r then begin
    let st = Store.stats u.machine.Machine.disk_store in
    say "store healthy: %d live blocks, %d generations, %d dedup entries"
      st.Store.live_blocks st.Store.committed_generations st.Store.dedup_entries;
    0
  end
  else
    failwith
      (Printf.sprintf "%d integrity violations, %d generations lost"
         (List.length r.Store.problems) (List.length r.Store.lost))

let cmd_stats path json =
  let u = load path in
  (* No explicit sync needed: Machine registers sync_metrics as a
     snapshot hook, so the export below always sees fresh gauges. *)
  let m = Machine.metrics u.machine in
  if json then print_string (Metrics.to_json m ^ "\n")
  else begin
    say "%-44s %s" "METRIC" "VALUE";
    List.iter
      (fun (name, v) ->
        match v with
        | Metrics.Counter n -> say "%-44s %d" name n
        | Metrics.Gauge g ->
          if Float.is_integer g && Float.abs g < 1e15 then
            say "%-44s %.0f" name g
          else say "%-44s %.2f" name g
        | Metrics.Histogram { count; sum; _ } ->
          if count = 0 then say "%-44s (no samples)" name
          else
            say "%-44s count=%d mean=%.1fus total=%.0fus" name count
              (sum /. float_of_int count)
              sum)
      (Metrics.snapshot m)
  end;
  0

exception Trace_error of string
(* An operational trace/timeline failure: nothing to export, or an
   export that would silently lose events. Maps to exit 2 like the
   other typed failures — a valid-but-empty trace file is worse than a
   loud error for anything scripted on top of us. *)

let cmd_trace path out =
  let u = load path in
  (* Trace exactly one checkpoint+restore cycle: drop the spans the
     resurrection on load produced, run the cycle, export. The
     universe file is left untouched (a measurement, not a mutation). *)
  let spans = Machine.spans u.machine in
  Span.clear spans;
  checkpoint_running u ~durable:true;
  List.iter
    (fun (_, g) ->
      if g.Types.last_gen <> None then
        ignore (Machine.restore_group u.machine g ()))
    u.apps;
  if Span.spans spans = [] then
    raise
      (Trace_error
         "span buffer is empty: no running persisted applications produced \
          a checkpoint+restore cycle");
  let oc = open_out out in
  output_string oc (Span.to_chrome_json spans);
  close_out oc;
  say "wrote %s: %d spans from a checkpoint+restore cycle \
       (load in Perfetto or chrome://tracing)"
    out
    (List.length (Span.spans spans));
  0

(* --- forensics commands ------------------------------------------------ *)

let json_attrs attrs = Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) attrs)

let json_us ~digits d = Json.fixed digits (Duration.to_us d)

let json_mark (m : Recorder.capture_mark) =
  Json.Obj
    [ ("gen", Int m.Recorder.cm_gen); ("pgid", Int m.Recorder.cm_pgid);
      ("at_us", json_us ~digits:1 m.Recorder.cm_at) ]

(* `sls postmortem`: what the previous incarnation left in flight. The
   report was computed when this load booted the machine — diffing the
   recovered flight-recorder ring and the store's black box against the
   committed prefix — so the command only renders it. *)
let cmd_postmortem path json =
  let u = load path in
  match Machine.postmortem u.machine with
  | None ->
    if json then say_json (Obj [ ("postmortem", Null) ])
    else
      say "no post-mortem: fresh store, or no recoverable flight recorder";
    0
  | Some pm ->
    let rec_ = Machine.recorder u.machine in
    (* Internal consistency ("sum checks"): a pending epoch must have
       stamped a crash reason, every pending epoch must lie beyond the
       recovered generation, and unacked generations must be distinct
       and ascending. CI gates on these. *)
    let tip = match pm.Machine.pm_recovered_gen with Some g -> g | None -> 0 in
    let checks_ok =
      (pm.Machine.pm_pending_epochs = [] || pm.Machine.pm_crash_reason <> None)
      && List.for_all
           (fun m -> m.Recorder.cm_gen > tip)
           pm.Machine.pm_pending_epochs
      && pm.Machine.pm_unacked_gens
         = List.sort_uniq Int.compare pm.Machine.pm_unacked_gens
    in
    if json then
      say_json
        (Obj
           [ ("crash_reason", jopt (fun r -> Json.String r) pm.Machine.pm_crash_reason);
             ("recovered_gen", jopt (fun g -> Json.Int g) pm.Machine.pm_recovered_gen);
             ("bbox_at_us", jopt (json_us ~digits:1) pm.Machine.pm_bbox_at);
             ("pending_epochs", List (List.map json_mark pm.Machine.pm_pending_epochs));
             ("unacked_gens", jints pm.Machine.pm_unacked_gens);
             ( "ring",
               Obj
                 [ ("events", Int (List.length pm.Machine.pm_events));
                   ("occupancy", Int (Recorder.occupancy rec_));
                   ("dropped", Int (Recorder.dropped rec_)) ] );
             ("checks_ok", Bool checks_ok) ])
    else begin
      say "post-mortem of the previous incarnation";
      say "  crash reason:   %s"
        (match pm.Machine.pm_crash_reason with
         | Some r -> r
         | None -> "none (clean shutdown)");
      say "  recovered ring: %s (%d events, %d overwritten before capture)"
        (match pm.Machine.pm_recovered_gen with
         | Some g -> Printf.sprintf "generation %d" g
         | None -> "none")
        (List.length pm.Machine.pm_events)
        (Recorder.dropped rec_);
      (match pm.Machine.pm_bbox_at with
       | Some d -> say "  black box:      last written at t=%.1f us" (Duration.to_us d)
       | None -> say "  black box:      none");
      (match pm.Machine.pm_pending_epochs with
       | [] -> say "  pending epochs: none"
       | ms ->
         say "  pending epochs: %s (captured, never durable)"
           (String.concat ", "
              (List.map
                 (fun m ->
                   Printf.sprintf "gen %d (pgroup %d, t=%.1f us)"
                     m.Recorder.cm_gen m.Recorder.cm_pgid
                     (Duration.to_us m.Recorder.cm_at))
                 ms)));
      (match pm.Machine.pm_unacked_gens with
       | [] -> say "  unacked gens:   none"
       | gs ->
         say "  unacked gens:   %s (standby never acknowledged)"
           (String.concat ", " (List.map string_of_int gs)))
    end;
    if checks_ok then 0
    else failwith "postmortem consistency checks failed"

(* What the standby universe [du] holds of the primary [pu]: its
   replicated generations as (primary gen, standby gen, correlation id)
   ascending by primary gen, read from the durable ["repl.gen:"] names;
   the newest primary generation it acknowledged; and the RPO, the
   committed primary generations past that ack. *)
let standby_state (pu : universe) (du : universe) =
  let mapped =
    List.filter_map
      (fun (n, sg) ->
        match Replica.parse_repl_gen_name n with
        | Some p -> Some (p, sg, Replica.parse_repl_corr n)
        | None -> None)
      (Store.named du.machine.Machine.disk_store)
    |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
  in
  let acked = List.fold_left (fun a (p, _, _) -> max a p) 0 mapped in
  let pgens = Store.generations pu.machine.Machine.disk_store in
  let rpo = List.length (List.filter (fun g -> g > acked) pgens) in
  (mapped, acked, rpo)

(* `sls timeline DST`: merge the primary's flight recorder and the
   standby's durable replication state into one Chrome trace — per-node
   process tracks, the same correlation id on both sides of every
   shipped generation, and the RPO a failover right now would cost
   annotated on the edge. *)
let cmd_timeline path dst out =
  let pu = load path in
  let du = load dst in
  let pevents = Recorder.events (Machine.recorder pu.machine) in
  if pevents = [] then
    raise
      (Trace_error
         "primary flight recorder is empty: nothing checkpointed yet, or \
          the recorder ring was unreadable at boot");
  let mapped, acked, rpo = standby_state pu du in
  if mapped = [] then
    raise (Trace_error "standby holds no replicated generations");
  (* A standby-side import becomes durable the instant the primary saw
     its ACK (the session ACKs durability, not arrival), so the
     correlation id pairs each import with the primary's repl.ack
     event — or repl.ship when the ack never made it back. *)
  let stamp (pgen, _, corr) =
    let matches kind (e : Recorder.event) =
      e.Recorder.ev_kind = kind
      &&
      match corr with
      | Some c -> List.assoc_opt "corr" e.Recorder.ev_attrs = Some c
      | None -> e.Recorder.ev_gen = pgen
    in
    let newest kind = List.find_opt (matches kind) (List.rev pevents) in
    match newest "repl.ack" with
    | Some e -> Some (Duration.to_us e.Recorder.ev_at)
    | None -> (
      match newest "repl.ship" with
      | Some e -> Some (Duration.to_us e.Recorder.ev_at)
      | None -> None)
  in
  let stamped, unmatched =
    List.partition (fun m -> stamp m <> None) mapped
  in
  (* The ring is bounded: ships older than its horizon have no event to
     pair with. Those imports still appear (at the black-box floor) —
     dropping them silently would make the merged timeline lie. *)
  let floor_us =
    match pevents with e :: _ -> Duration.to_us e.Recorder.ev_at | [] -> 0.
  in
  let process ~pid name =
    Json.Obj
      [ ("name", String "process_name"); ("ph", String "M"); ("pid", Int pid);
        ("args", Obj [ ("name", String name) ]) ]
  in
  let thread ~pid ~tid name =
    Json.Obj
      [ ("name", String "thread_name"); ("ph", String "M"); ("pid", Int pid);
        ("tid", Int tid); ("args", Obj [ ("name", String name) ]) ]
  in
  let tracks = [ ("ckpt", 1); ("repl", 2) ] in
  let metadata =
    [ process ~pid:1 "primary"; process ~pid:2 "standby" ]
    @ List.map (fun (name, tid) -> thread ~pid:1 ~tid name) tracks
    @ [ thread ~pid:1 ~tid:3 "events"; thread ~pid:2 ~tid:1 "repl" ]
  in
  let tid_of kind =
    match String.index_opt kind '.' with
    | None -> 3
    | Some i -> (
      match List.assoc_opt (String.sub kind 0 i) tracks with
      | Some tid -> tid
      | None -> 3)
  in
  let event ~pid ~tid ~ts ~name args =
    Json.Obj
      [ ("name", String name); ("cat", String "aurora"); ("ph", String "X");
        ("ts", Json.fixed 3 ts); ("dur", Int 1); ("pid", Int pid); ("tid", Int tid);
        ("args", json_attrs args) ]
  in
  let primary_events =
    List.map
      (fun (e : Recorder.event) ->
        let args =
          (if e.Recorder.ev_gen >= 0 then
             [ ("gen", string_of_int e.Recorder.ev_gen) ]
           else [])
          @ [ ("detail", e.Recorder.ev_detail) ]
          @ e.Recorder.ev_attrs
        in
        event ~pid:1 ~tid:(tid_of e.Recorder.ev_kind)
          ~ts:(Duration.to_us e.Recorder.ev_at)
          ~name:e.Recorder.ev_kind args)
      pevents
  in
  let standby_events =
    List.map
      (fun ((pgen, sgen, corr) as m) ->
        let ts = match stamp m with Some ts -> ts | None -> floor_us in
        let args =
          [ ("primary_gen", string_of_int pgen);
            ("standby_gen", string_of_int sgen) ]
          @ (match corr with Some c -> [ ("corr", c) ] | None -> [])
        in
        event ~pid:2 ~tid:1 ~ts ~name:"repl.import" args)
      mapped
  in
  (* The failover edge: what promoting this standby right now costs. *)
  let edge =
    Json.Obj
      [ ( "name",
          String
            (Printf.sprintf "failover edge: RPO %d generation%s" rpo
               (if rpo = 1 then "" else "s")) );
        ("ph", String "i"); ("s", String "g");
        ( "ts",
          Json.fixed 3
            (List.fold_left
               (fun a m -> match stamp m with Some ts -> Float.max a ts | None -> a)
               floor_us mapped) );
        ("pid", Int 2); ("tid", Int 1);
        ( "args",
          json_attrs
            [ ("rpo_generations", string_of_int rpo);
              ("acked_primary_gen", string_of_int acked) ] ) ]
  in
  let trace =
    Json.Obj
      [ ("displayTimeUnit", String "ms");
        ("traceEvents", List (metadata @ primary_events @ standby_events @ [ edge ])) ]
  in
  let oc = open_out out in
  output_string oc (Json.to_string trace ^ "\n");
  close_out oc;
  say "wrote %s: %d primary events + %d standby imports (%d beyond the ring \
       horizon), RPO %d"
    out (List.length pevents) (List.length mapped)
    (List.length unmatched) rpo;
  ignore stamped;
  0

(* --- provenance commands ---------------------------------------------- *)

let json_obj_attr (a : Types.obj_attribution) =
  Json.Obj
    [ ("oid", Int a.Types.a_oid); ("store_oid", Int a.Types.a_store_oid);
      ("owner_pid", jopt (fun p -> Json.Int p) a.Types.a_owner_pid);
      ("pages", Int a.Types.a_pages); ("bytes", Int a.Types.a_bytes);
      ("metadata_bytes", Int a.Types.a_metadata_bytes);
      ("cow_breaks", Int a.Types.a_cow_breaks); ("chain_depth", Int a.Types.a_chain_depth) ]

let json_proc_attr (p : Types.proc_attribution) =
  Json.Obj
    [ ("pid", Int p.Types.p_pid); ("name", String p.Types.p_name);
      ("pages", Int p.Types.p_pages); ("bytes", Int p.Types.p_bytes);
      ("metadata_bytes", Int p.Types.p_metadata_bytes);
      ("cow_breaks", Int p.Types.p_cow_breaks); ("objects", Int p.Types.p_objects) ]

(* `sls top`: live who-pays-for-checkpoints. A measurement, not a
   mutation: each group is checkpointed to refresh its attribution, the
   rows are printed, and the universe file is left untouched (same
   convention as `sls trace`). *)
let cmd_top path json k =
  let u = load path in
  let rows =
    List.filter_map
      (fun (entry, g) ->
        if Types.member_pids u.machine.Machine.kernel g = [] then None
        else begin
          let b = Machine.checkpoint_now u.machine g () in
          match (b.Types.status, Machine.last_attribution g) with
          | `Ok, Some a -> Some (entry, g, b, a)
          | _ -> None
        end)
      u.apps
  in
  if rows = [] then failwith "no running persisted applications to attribute";
  let exact (a : Types.ckpt_attribution) =
    let sp = List.fold_left (fun acc p -> acc + p.Types.p_pages) 0 a.Types.at_procs in
    let sb = List.fold_left (fun acc p -> acc + p.Types.p_bytes) 0 a.Types.at_procs in
    let so =
      List.fold_left (fun acc o -> acc + o.Types.a_pages) 0 a.Types.at_objects
    in
    sp = a.Types.at_pages_total && sb = a.Types.at_bytes_total
    && so = a.Types.at_pages_total
  in
  if json then begin
    let jrow (entry, g, (b : Types.ckpt_breakdown), a) =
      Json.Obj
        [ ("pgid", Int g.Types.pgid); ("app", String entry.app_name);
          ("gen", Int b.Types.gen); ("stop_us", json_us ~digits:1 b.Types.stop_time);
          ("pages", Int a.Types.at_pages_total); ("bytes", Int a.Types.at_bytes_total);
          ("metadata_bytes", Int a.Types.at_metadata_bytes_total);
          ("sums_exact", Bool (exact a));
          ("top_procs", List (List.map json_proc_attr (Types.top_procs ~k a)));
          ("top_objects", List (List.map json_obj_attr (Types.top_objects ~k a))) ]
    in
    say_json (Obj [ ("groups", List (List.map jrow rows)) ])
  end
  else
    List.iter
      (fun (entry, g, (b : Types.ckpt_breakdown), a) ->
        say "pgroup %d (%s): generation %d, stop %.1f us, %d pages / %d bytes%s"
          g.Types.pgid entry.app_name b.Types.gen
          (Duration.to_us b.Types.stop_time)
          a.Types.at_pages_total a.Types.at_bytes_total
          (if exact a then "" else "  [ATTRIBUTION MISMATCH]");
        say "  %6s %-16s %8s %10s %6s %8s" "PID" "NAME" "PAGES" "BYTES" "COW" "OBJECTS";
        List.iter
          (fun (p : Types.proc_attribution) ->
            say "  %6d %-16s %8d %10d %6d %8d" p.Types.p_pid p.Types.p_name
              p.Types.p_pages p.Types.p_bytes p.Types.p_cow_breaks p.Types.p_objects)
          (Types.top_procs ~k a);
        say "  %6s %-16s %8s %10s %6s %8s" "OID" "OWNER" "PAGES" "BYTES" "COW" "CHAIN";
        List.iter
          (fun (o : Types.obj_attribution) ->
            say "  %6d %-16s %8d %10d %6d %8d" o.Types.a_oid
              (match o.Types.a_owner_pid with
               | Some p -> "pid " ^ string_of_int p
               | None -> "-")
              o.Types.a_pages o.Types.a_bytes o.Types.a_cow_breaks
              o.Types.a_chain_depth)
          (Types.top_objects ~k a))
      rows;
  if List.for_all (fun (_, _, _, a) -> exact a) rows then 0
  else failwith "attribution rows do not sum to the checkpoint breakdown"

let json_provenance (p : Store.provenance) =
  Json.Obj
    [ ("records", Int p.Store.pv_records); ("pages", Int p.Store.pv_pages);
      ("blobs", Int p.Store.pv_blobs); ("logical_bytes", Int p.Store.pv_logical_bytes);
      ("data_blocks", Int p.Store.pv_data_blocks); ("meta_blocks", Int p.Store.pv_meta_blocks);
      ("mirror_blocks", Int p.Store.pv_mirror_blocks);
      ("commit_blocks", Int p.Store.pv_commit_blocks);
      ("dedup_hits", Int p.Store.pv_dedup_hits);
      ("dedup_saved_bytes", Int p.Store.pv_dedup_saved_bytes);
      ("bytes_written", Int (Store.bytes_written p)) ]

(* `sls explain <gen>`: the storage provenance of one generation, from
   both sides — the write-time accumulation persisted in the generation
   table, and an fsck-style walk of what is reachable right now — plus
   the store-wide reachable-vs-live cross-check. *)
let cmd_explain path gen json =
  let u = load path in
  let store = u.machine.Machine.disk_store in
  let gen =
    match gen with
    | Some g -> g
    | None -> (
      match Store.latest store with
      | Some g -> g
      | None -> failwith "store has no committed generations")
  in
  let r =
    match Store.gen_report store gen with
    | Some r -> r
    | None -> failwith (Printf.sprintf "unknown generation %d" gen)
  in
  let prov = Store.gen_provenance store gen in
  let x = Store.crosscheck store in
  if json then
    say_json
      (Obj
         [ ("gen", Int gen); ("provenance", jopt json_provenance prov);
           ( "report",
             Obj
               [ ("meta_blocks", Int r.Store.r_meta_blocks);
                 ("data_blocks", Int r.Store.r_data_blocks);
                 ("mirror_blocks", Int r.Store.r_mirror_blocks);
                 ("records", Int r.Store.r_record_entries);
                 ("pages", Int r.Store.r_page_entries);
                 ("blobs", Int r.Store.r_blob_entries);
                 ("record_bytes", Int r.Store.r_record_bytes);
                 ("logical_bytes", Int r.Store.r_logical_bytes);
                 ("exclusive_blocks", Int r.Store.r_exclusive_blocks);
                 ("shared_blocks", Int r.Store.r_shared_blocks) ] );
           ( "crosscheck",
             Obj
               [ ("reachable_blocks", Int x.Store.x_reachable_blocks);
                 ("live_blocks", Int x.Store.x_live_blocks);
                 ("within_1pct", Bool x.Store.x_within_1pct) ] );
           ("capacity_blocks", jopt (fun c -> Json.Int c) (Store.capacity_blocks store)) ])
  else begin
    say "generation %d" gen;
    (match prov with
     | Some p ->
       say "  written:   %d records, %d pages, %d blobs (%d logical bytes)"
         p.Store.pv_records p.Store.pv_pages p.Store.pv_blobs
         p.Store.pv_logical_bytes;
       say "  blocks:    %d data + %d meta + %d mirror + %d commit = %d bytes on device"
         p.Store.pv_data_blocks p.Store.pv_meta_blocks p.Store.pv_mirror_blocks
         p.Store.pv_commit_blocks (Store.bytes_written p);
       say "  dedup:     %d avoided writes, %d bytes saved" p.Store.pv_dedup_hits
         p.Store.pv_dedup_saved_bytes
     | None -> say "  written:   (no provenance: imported or pre-provenance generation)");
    say "  reachable: %d meta + %d data blocks (%d mirrored); %d exclusive, %d shared"
      r.Store.r_meta_blocks r.Store.r_data_blocks r.Store.r_mirror_blocks
      r.Store.r_exclusive_blocks r.Store.r_shared_blocks;
    say "  contents:  %d records (%d bytes), %d pages, %d blobs (%d logical bytes)"
      r.Store.r_record_entries r.Store.r_record_bytes r.Store.r_page_entries
      r.Store.r_blob_entries r.Store.r_logical_bytes;
    say "  crosscheck: %d reachable vs %d live blocks (%s)"
      x.Store.x_reachable_blocks x.Store.x_live_blocks
      (if x.Store.x_within_1pct then "within 1%" else "MISMATCH");
    (match Store.capacity_blocks store with
     | Some c ->
       say "  capacity:  %d / %d blocks live (%.1f%%)" x.Store.x_live_blocks c
         (100.0 *. float_of_int x.Store.x_live_blocks /. float_of_int c)
     | None -> ())
  end;
  if x.Store.x_within_1pct then 0
  else failwith "crosscheck failed: reachable and live block counts diverge"

(* `sls diff <genA> <genB>`: what changed between two checkpoints, at
   object/page granularity, plus the dedup deltas. *)
let cmd_diff path gen_a gen_b json =
  let u = load path in
  let store = u.machine.Machine.disk_store in
  let d = Store.diff store ~from_gen:gen_a ~to_gen:gen_b in
  if json then begin
    let jdelta (c : Store.oid_delta) =
      Json.Obj
        [ ("oid", Int c.Store.d_oid); ("pages_added", Int c.Store.d_pages_added);
          ("pages_removed", Int c.Store.d_pages_removed);
          ("pages_changed", Int c.Store.d_pages_changed) ]
    in
    say_json
      (Obj
         [ ("from", Int d.Store.df_from); ("to", Int d.Store.df_to);
           ("oids_added", jints d.Store.df_oids_added);
           ("oids_removed", jints d.Store.df_oids_removed);
           ("changed", List (List.map jdelta d.Store.df_changed));
           ("pages_added", Int d.Store.df_pages_added);
           ("pages_removed", Int d.Store.df_pages_removed);
           ("pages_changed", Int d.Store.df_pages_changed);
           ("bytes_delta", Int d.Store.df_bytes_delta);
           ("dedup_hits_delta", Int d.Store.df_dedup_hits_delta);
           ("dedup_saved_delta", Int d.Store.df_dedup_saved_delta) ])
  end
  else begin
    say "generation %d -> %d" d.Store.df_from d.Store.df_to;
    say "  objects:   %d added, %d removed, %d changed"
      (List.length d.Store.df_oids_added)
      (List.length d.Store.df_oids_removed)
      (List.length d.Store.df_changed);
    List.iter
      (fun (c : Store.oid_delta) ->
        say "    oid %d: +%d / -%d pages, %d changed" c.Store.d_oid
          c.Store.d_pages_added c.Store.d_pages_removed c.Store.d_pages_changed)
      d.Store.df_changed;
    say "  pages:     +%d / -%d, %d changed (%+d bytes)" d.Store.df_pages_added
      d.Store.df_pages_removed d.Store.df_pages_changed d.Store.df_bytes_delta;
    say "  dedup:     %+d avoided writes, %+d bytes saved"
      d.Store.df_dedup_hits_delta d.Store.df_dedup_saved_delta
  end;
  0

(* --- replication commands --------------------------------------------- *)

(* `sls replicate DST`: attach a hot standby behind a (faulty) link,
   drive every committed generation through the replication session —
   retransmitting, resyncing — and write the standby device out as its
   own universe file. A session that cannot converge raises
   {!Replica.Session_failed} (exit 2). *)
let cmd_replicate path dst pgid loss seed json =
  if loss < 0. || loss >= 1. then failwith "--loss must be in [0, 1)";
  let u = load path in
  let entry, g = find_app u pgid in
  let faults =
    if loss > 0. then
      Some (Netlink.fault_plan ~seed:(Int64.of_int seed) ~drop:loss ())
    else None
  in
  let repl = Machine.attach_standby u.machine ?faults g in
  let pgens =
    List.sort Int.compare (Store.generations u.machine.Machine.disk_store)
  in
  if pgens = [] then failwith "no committed generations to replicate";
  let reports =
    List.map (fun gen -> Replica.ship_exn repl ~gen) pgens
  in
  let st = Replica.stats repl in
  let lag = Replica.lag repl in
  let state = match Replica.state repl with `Idle -> "idle" | `Degraded -> "degraded" in
  let acked_rtts =
    List.filter_map
      (fun (r : Replica.ship_report) ->
        if r.Replica.sh_outcome = `Acked then Some (Duration.to_us r.Replica.sh_rtt)
        else None)
      reports
  in
  let rtt_mean =
    match acked_rtts with
    | [] -> 0.
    | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
  in
  if json then
    say_json
      (Obj
         [ ("app", String entry.app_name); ("generations", Int (List.length pgens));
           ("acked", Int st.Replica.acked); ("state", String state); ("lag", Int lag);
           ("full_images", Int st.Replica.full_images);
           ("delta_images", Int st.Replica.delta_images);
           ("retransmits", Int st.Replica.retransmits);
           ("resyncs", Int st.Replica.resyncs);
           ("corrupt_rejects", Int st.Replica.corrupt_rejects);
           ("duplicate_frames", Int st.Replica.duplicate_frames);
           ("wire_bytes", Int st.Replica.wire_bytes);
           ("ack_rtt_us_mean", Json.fixed 1 rtt_mean) ])
  else begin
    List.iter
      (fun (r : Replica.ship_report) ->
        say "generation %d: %s %s in %d attempt%s (%.1f us, %d KiB)"
          r.Replica.sh_gen
          (match r.Replica.sh_mode with
           | `Full -> "full image"
           | `Delta b -> Printf.sprintf "delta vs %d" b)
          (match r.Replica.sh_outcome with
           | `Acked -> "acked"
           | `Skipped -> "skipped"
           | `Gave_up -> "GAVE UP")
          r.Replica.sh_attempts
          (if r.Replica.sh_attempts = 1 then "" else "s")
          (Duration.to_us r.Replica.sh_rtt)
          (r.Replica.sh_bytes / 1024))
      reports;
    say "session %s: %d/%d generations acked, lag %d" state st.Replica.acked
      (List.length pgens) lag;
    say "  wire: %d bytes, %d retransmits, %d resyncs, %d corrupt rejects, mean ack rtt %.1f us"
      st.Replica.wire_bytes st.Replica.retransmits st.Replica.resyncs
      st.Replica.corrupt_rejects rtt_mean
  end;
  write_universe_file dst
    ~nvme:(Store.device (Replica.standby_store repl))
    ~apps:(List.map fst u.apps);
  Machine.detach_standby u.machine;
  save path u;
  if not json then say "wrote standby universe %s" dst;
  0

(* `sls failover DST`: promote a standby universe — boot a machine on
   its device (recovering the committed, integrity-verified prefix it
   acknowledged), resurrect the applications, and report the RPO
   against the primary universe ([-u]). *)
let cmd_failover primary dst json =
  let pu = load primary in
  let du = load dst in
  let mapped, acked, rpo = standby_state pu du in
  if mapped = [] then
    failwith "standby holds no replicated generations; nothing to promote";
  let promoted_gen = Store.latest du.machine.Machine.disk_store in
  let pids = List.map (fun (pid, _, _, _) -> pid) (Machine.ps du.machine) in
  if json then
    say_json
      (Obj
         [ ("state", String (if rpo = 0 then "converged" else "degraded"));
           ("replicated_generations", Int (List.length mapped));
           ("acked_primary_gen", Int acked); ("rpo_generations", Int rpo);
           ("promoted_gen", jopt (fun gn -> Json.Int gn) promoted_gen);
           ("restored_pids", jints pids) ])
  else begin
    say "promoted standby %s: %d replicated generations, last acked primary generation %d"
      dst (List.length mapped) acked;
    say "  RPO: %d primary generation%s lost (%s)" rpo
      (if rpo = 1 then "" else "s")
      (if rpo = 0 then "standby was converged" else "standby lagged the primary");
    say "  restored pids [%s] from generation %s"
      (String.concat ";" (List.map string_of_int pids))
      (match promoted_gen with Some gn -> string_of_int gn | None -> "-")
  end;
  save dst du;
  0

let cmd_crash path mid_pipeline =
  let u = load path in
  if mid_pipeline then begin
    (* Capture one epoch per group and pull the plug while its flush is
       still draining: long enough for the black box's single-block
       write to land, short of the epoch's superblock becoming durable —
       the post-mortem then has lost epochs to name. *)
    checkpoint_running u ~durable:false;
    Machine.run u.machine (Duration.microseconds 20)
  end;
  Machine.crash u.machine;
  (* Save WITHOUT quiescing: exactly what the power failure left. *)
  write_universe_file path ~nvme:u.machine.Machine.nvme ~apps:(List.map fst u.apps);
  say "power failure simulated; only durable device state survives";
  0

(* `sls probe`: subscribe a DSL query on the machine's tracepoint
   registry, drive checkpoint rounds so the instrumented paths fire,
   and render the aggregation. A measurement, not a mutation: the
   universe file is left untouched. *)
let cmd_probe path expr json watch =
  match Probe.parse expr with
  | Error msg ->
    Printf.eprintf "sls: probe: %s\n" msg;
    1
  | Ok spec ->
    let u = load path in
    let probes = u.machine.Machine.kernel.Kernel.obs.Obs.probes in
    let id = Probe.subscribe probes spec in
    let rounds = if watch then 5 else 1 in
    let round () =
      Machine.run u.machine (Duration.milliseconds 1);
      checkpoint_running u ~durable:true;
      Machine.drain_storage u.machine
    in
    let emit r =
      if json then say "%s" (Probe.report_json r)
      else Printf.printf "%s%!" (Probe.render r)
    in
    for i = 1 to rounds do
      round ();
      if watch then begin
        if not json then say "-- after round %d --" i;
        Option.iter emit (Probe.report probes id)
      end
    done;
    if not watch then Option.iter emit (Probe.report probes id);
    0

(* `sls critical-path`: drive one checkpoint round so the span tree
   holds a finalized epoch, then extract the blame breakdown. *)
let cmd_critpath path gen json =
  let u = load path in
  Span.clear (Machine.spans u.machine);
  Machine.run u.machine (Duration.milliseconds 1);
  checkpoint_running u ~durable:false;
  (* Finalization (and its ckpt.flush span) happens when the epoch
     retires from the pipeline, so drain before analyzing. *)
  Machine.drain_storage u.machine;
  match Machine.critical_path ?gen u.machine with
  | Error msg ->
    Printf.eprintf "sls: critical-path: %s\n" msg;
    1
  | Ok r ->
    if json then say "%s" (Critpath.to_json r)
    else Printf.printf "%s%!" (Critpath.render r);
    0

(* --- cmdliner wiring ---------------------------------------------------- *)

let universe_arg =
  Arg.(value & opt string default_path & info [ "universe"; "u" ] ~docv:"FILE"
         ~doc:"Universe state file.")

let wrap f =
  try f () with
  | Store.Fail e ->
    (* A typed store failure (unrecoverable superblock, unreadable
       generation table, dead device) is distinct from usage errors. *)
    Printf.eprintf "sls: store failure: %s\n" (Store.describe_error e);
    2
  | Restore.Error e ->
    (* Same class: an operational failure of the store's contents
       (missing manifest or record, corrupt image), not a usage error. *)
    Printf.eprintf "sls: restore failure: %s\n" (Restore.describe_error e);
    2
  | Replica.Session_failed msg ->
    (* A replication session that cannot make progress (the link never
       delivers within the retry budget) is operational, not usage. *)
    Printf.eprintf "sls: replication failure: %s\n" msg;
    2
  | Trace_error msg ->
    (* An export that would be empty or silently lossy: operational,
       and distinct from usage errors so scripts can gate on it. *)
    Printf.eprintf "sls: trace failure: %s\n" msg;
    2
  | Failure msg | Invalid_argument msg ->
    Printf.eprintf "sls: %s\n" msg;
    1

let init_cmd =
  Cmd.v (Cmd.info "init" ~doc:"Create a fresh universe.")
    Term.(const (fun path -> wrap (fun () -> cmd_init path)) $ universe_arg)

let spawn_cmd =
  let kind =
    Arg.(value & opt string "counter" & info [ "app" ] ~docv:"KIND"
           ~doc:"Built-in application: counter, kv, or func.")
  in
  let app_name_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME") in
  let interval =
    Arg.(value & opt int 10 & info [ "interval" ] ~docv:"MS"
           ~doc:"Checkpoint interval in milliseconds.")
  in
  Cmd.v
    (Cmd.info "spawn"
       ~doc:"Run a built-in application under transparent persistence (sls persist).")
    Term.(
      const (fun path kind name interval ->
          wrap (fun () -> cmd_spawn path kind name interval))
      $ universe_arg $ kind $ app_name_arg $ interval)

let run_cmd =
  let ms = Arg.(value & opt int 100 & info [ "ms" ] ~docv:"MS" ~doc:"Span to run.") in
  Cmd.v (Cmd.info "run" ~doc:"Advance simulated time (periodic checkpoints fire).")
    Term.(const (fun path ms -> wrap (fun () -> cmd_run path ms)) $ universe_arg $ ms)

let ps_cmd =
  Cmd.v (Cmd.info "ps" ~doc:"List applications in Aurora.")
    Term.(const (fun path -> wrap (fun () -> cmd_ps path)) $ universe_arg)

let checkpoint_cmd =
  let ckpt_name =
    Arg.(value & opt (some string) None & info [ "name" ] ~docv:"NAME"
           ~doc:"Name the checkpoint.")
  in
  Cmd.v (Cmd.info "checkpoint" ~doc:"Checkpoint every persisted application now.")
    Term.(
      const (fun path name -> wrap (fun () -> cmd_checkpoint path name))
      $ universe_arg $ ckpt_name)

let gens_cmd =
  Cmd.v (Cmd.info "gens" ~doc:"List checkpoint generations and named snapshots.")
    Term.(const (fun path -> wrap (fun () -> cmd_gens path)) $ universe_arg)

let restore_cmd =
  let gen =
    Arg.(value & opt (some int) None & info [ "gen" ] ~docv:"GEN"
           ~doc:"Generation to restore (default: latest).")
  in
  Cmd.v (Cmd.info "restore" ~doc:"Restore applications from a checkpoint.")
    Term.(
      const (fun path gen -> wrap (fun () -> cmd_restore path gen)) $ universe_arg $ gen)

let send_cmd =
  let out = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let pgid =
    Arg.(value & opt (some int) None & info [ "pgroup" ] ~docv:"PGID"
           ~doc:"Persistence group to export (default: first).")
  in
  Cmd.v (Cmd.info "send" ~doc:"Export an application image to a file.")
    Term.(
      const (fun path out pgid -> wrap (fun () -> cmd_send path out pgid))
      $ universe_arg $ out $ pgid)

let recv_cmd =
  let in_file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  Cmd.v (Cmd.info "recv" ~doc:"Import an application image from a file.")
    Term.(
      const (fun path in_file -> wrap (fun () -> cmd_recv path in_file))
      $ universe_arg $ in_file)

let backend_arg =
  Arg.(value & opt string "memory" & info [ "backend" ] ~docv:"KIND"
         ~doc:"Backend kind: disk or memory.")

let pgid_arg =
  Arg.(value & opt (some int) None & info [ "pgroup" ] ~docv:"PGID"
         ~doc:"Persistence group (default: first).")

let attach_cmd =
  Cmd.v (Cmd.info "attach" ~doc:"Attach a backend to a persistence group.")
    Term.(
      const (fun path pgid backend -> wrap (fun () -> cmd_attach path pgid backend))
      $ universe_arg $ pgid_arg $ backend_arg)

let detach_cmd =
  Cmd.v (Cmd.info "detach" ~doc:"Detach a backend from a persistence group.")
    Term.(
      const (fun path pgid backend -> wrap (fun () -> cmd_detach path pgid backend))
      $ universe_arg $ pgid_arg $ backend_arg)

let stats_cmd =
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the metrics snapshot as JSON instead of a table.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Dump kernel-wide metrics (device, store, checkpoint, restore).")
    Term.(
      const (fun path json -> wrap (fun () -> cmd_stats path json))
      $ universe_arg $ json)

let trace_cmd =
  let out =
    Arg.(value & opt string "trace.json" & info [ "out"; "o" ] ~docv:"FILE"
           ~doc:"Output file for the Chrome trace_event JSON.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run one checkpoint+restore cycle and export its span tree as a \
             Chrome trace (Perfetto-loadable).")
    Term.(
      const (fun path out -> wrap (fun () -> cmd_trace path out))
      $ universe_arg $ out)

let crash_cmd =
  let mid_pipeline =
    Arg.(value & flag & info [ "mid-pipeline" ]
           ~doc:"Capture a checkpoint epoch per group first and crash while \
                 its flush is still in flight, so `sls postmortem` has lost \
                 epochs to report.")
  in
  Cmd.v (Cmd.info "crash" ~doc:"Simulate a power failure.")
    Term.(
      const (fun path mid -> wrap (fun () -> cmd_crash path mid))
      $ universe_arg $ mid_pipeline)

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit JSON instead of a table.")

let top_cmd =
  let k =
    Arg.(value & opt int 5 & info [ "k"; "top" ] ~docv:"N"
           ~doc:"Rows shown per attribution kind.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Checkpoint every group and show who pays: top-k processes and VM \
             objects by captured pages/bytes (with the exact-sum cross-check). \
             The universe file is not modified.")
    Term.(
      const (fun path json k -> wrap (fun () -> cmd_top path json k))
      $ universe_arg $ json_arg $ k)

let explain_cmd =
  let gen =
    Arg.(value & pos 0 (some int) None & info [] ~docv:"GEN"
           ~doc:"Generation to explain (default: latest).")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Storage provenance of one generation: write-time accounting from \
             the generation table, an fsck-style reachability walk, and the \
             store-wide reachable-vs-live cross-check.")
    Term.(
      const (fun path gen json -> wrap (fun () -> cmd_explain path gen json))
      $ universe_arg $ gen $ json_arg)

let diff_cmd =
  let gen_a = Arg.(required & pos 0 (some int) None & info [] ~docv:"GENA") in
  let gen_b = Arg.(required & pos 1 (some int) None & info [] ~docv:"GENB") in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Object/page-level delta between two checkpoint generations, with \
             dedup deltas.")
    Term.(
      const (fun path a b json -> wrap (fun () -> cmd_diff path a b json))
      $ universe_arg $ gen_a $ gen_b $ json_arg)

let replicate_cmd =
  let dst =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DST"
           ~doc:"Destination universe file for the standby.")
  in
  let loss =
    Arg.(value & opt float 0. & info [ "loss" ] ~docv:"P"
           ~doc:"Per-message drop probability on the replication link.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N"
           ~doc:"Deterministic seed for the link's fault plan.")
  in
  Cmd.v
    (Cmd.info "replicate"
       ~doc:"Ship every checkpoint generation to a hot standby over a \
             (lossy) link — retransmitting and resyncing as needed — and \
             write the standby out as its own universe file.")
    Term.(
      const (fun path dst pgid loss seed json ->
          wrap (fun () -> cmd_replicate path dst pgid loss seed json))
      $ universe_arg $ dst $ pgid_arg $ loss $ seed $ json_arg)

let failover_cmd =
  let dst =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DST"
           ~doc:"Standby universe file to promote.")
  in
  Cmd.v
    (Cmd.info "failover"
       ~doc:"Promote a replicated standby universe: recover its store, \
             resurrect the applications, and report the RPO (checkpoint \
             generations lost) against the primary universe.")
    Term.(
      const (fun path dst json -> wrap (fun () -> cmd_failover path dst json))
      $ universe_arg $ dst $ json_arg)

let postmortem_cmd =
  Cmd.v
    (Cmd.info "postmortem"
       ~doc:"Report what the previous incarnation left in flight: crash \
             reason, checkpoint epochs captured but never durable, and \
             generations a standby never acknowledged — reconstructed from \
             the flight recorder recovered with the last durable generation \
             and the store's black box.")
    Term.(
      const (fun path json -> wrap (fun () -> cmd_postmortem path json))
      $ universe_arg $ json_arg)

let timeline_cmd =
  let dst =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DST"
           ~doc:"Standby universe file to merge.")
  in
  let out =
    Arg.(value & opt string "timeline.json" & info [ "out"; "o" ] ~docv:"FILE"
           ~doc:"Output file for the merged Chrome trace_event JSON.")
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:"Merge the primary's flight recorder and a standby's durable \
             replication state into one Perfetto-loadable trace: per-node \
             tracks, matching correlation ids on every shipped generation, \
             and the RPO a failover would cost annotated on the edge.")
    Term.(
      const (fun path dst out -> wrap (fun () -> cmd_timeline path dst out))
      $ universe_arg $ dst $ out)

let fsck_cmd =
  let scrub =
    Arg.(value & flag & info [ "scrub" ]
           ~doc:"Also read every block, repairing what the mirror or a \
                 dedup copy can heal and quarantining what it cannot.")
  in
  Cmd.v (Cmd.info "fsck" ~doc:"Check object-store integrity.")
    Term.(
      const (fun path scrub -> wrap (fun () -> cmd_fsck path scrub))
      $ universe_arg $ scrub)

let probe_cmd =
  let expr =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPR"
           ~doc:"Probe query, e.g. 'dev.io where dev = nvme1 && us > 50 agg \
                 quantize(us) by op'. Points: dev.io, store.commit, \
                 ckpt.phase, repl.msg, alloc.defer; aggregations: count, \
                 sum(F), min(F), max(F), avg(F), quantize(F).")
  in
  let watch =
    Arg.(value & flag & info [ "watch"; "w" ]
           ~doc:"Re-render the aggregation after each of five checkpoint \
                 rounds instead of once at the end.")
  in
  Cmd.v
    (Cmd.info "probe"
       ~doc:"Subscribe a dynamic-tracepoint query, drive checkpoint rounds \
             against the running applications, and print the DTrace-style \
             online aggregation. The universe file is not modified.")
    Term.(
      const (fun path expr json watch ->
          wrap (fun () -> cmd_probe path expr json watch))
      $ universe_arg $ expr $ json_arg $ watch)

let critpath_cmd =
  let gen =
    Arg.(value & pos 0 (some int) None & info [] ~docv:"GEN"
           ~doc:"Generation to analyze (default: the newest finalized one).")
  in
  Cmd.v
    (Cmd.info "critical-path"
       ~doc:"Run one checkpoint round and extract the epoch's critical path \
             from the span tree: contiguous blame segments from barrier \
             entry to superblock durability (their percentages sum to 100), \
             plus overlapping antagonists (backpressure, recorder tax, \
             replication shipping, out-of-band writes, mirror-write \
             amplification). The universe file is not modified.")
    Term.(
      const (fun path gen json -> wrap (fun () -> cmd_critpath path gen json))
      $ universe_arg $ gen $ json_arg)

let group =
  let doc = "the Aurora single level store (simulated)" in
  Cmd.group (Cmd.info "sls" ~doc)
    [
      init_cmd; spawn_cmd; run_cmd; ps_cmd; checkpoint_cmd; gens_cmd; restore_cmd;
      send_cmd; recv_cmd; replicate_cmd; failover_cmd; attach_cmd; detach_cmd;
      crash_cmd; fsck_cmd; stats_cmd; trace_cmd; top_cmd; explain_cmd; diff_cmd;
      postmortem_cmd; timeline_cmd; probe_cmd; critpath_cmd;
    ]

let main () = Cmd.eval' group
let run ~argv = Cmd.eval' ~argv group
