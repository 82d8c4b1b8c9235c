open Aurora_simtime

let block_size = 4096

type content =
  | Data of string
  | Seed of int64
  | Zero

type stats = {
  reads : int;
  writes : int;
  blocks_read : int;
  blocks_written : int;
  flushes : int;
}

(* An async submission in flight: the writes, block [blocks.(i)]
   taking [contents.(i)], become durable (on power-loss-protected
   caches) once the simulated clock passes [done_at]; a crash before
   that drops them. *)
type batch = { done_at : Duration.t; blocks : int array; contents : content array }

(* A device's instrumentation, resolved once at bind time. Plain data
   only (metric cells, the span tree, the probe registry; never
   [Metrics.t], whose snapshot hooks are closures): the CLI marshals
   whole device arrays into the universe file, so nothing reachable
   from a device may hold a closure. *)
type sink = {
  commands : Metrics.counter;
  read_blocks : Metrics.counter;
  written_blocks : Metrics.counter;
  xfer_us : Metrics.histogram;
  spans : Span.t;
  probes : Probe.t;
}

(* Command paths: sync read/write, batched read, extent write, out-of-band write. *)
type command = Read | Write | Batch_read | Extents | Oob

type t = {
  name : string;
  clock : Clock.t;
  profile : Profile.t;
  capacity_blocks : int option;
  current : content Blockvec.t;        (* what reads see *)
  durable : content Blockvec.t;        (* what survives a crash *)
  sched : Iosched.t;                   (* queue state; horizon = busy_until *)
  mutable pending : batch list;        (* in-flight batches, newest first *)
  mutable st : stats;
  mutable faults : Fault.injector option;
  mutable sink : sink option;
}

let zero_stats = { reads = 0; writes = 0; blocks_read = 0; blocks_written = 0; flushes = 0 }

let bind name (o : Obs.t) =
  let m = o.Obs.metrics and pre = "dev." ^ name ^ "." in
  { commands = Metrics.counter m (pre ^ "commands");
    read_blocks = Metrics.counter m (pre ^ "blocks_read");
    written_blocks = Metrics.counter m (pre ^ "blocks_written");
    xfer_us = Metrics.histogram m (pre ^ "xfer_us");
    spans = o.Obs.spans; probes = o.Obs.probes }

let create ?(sched = Iosched.Fifo) ?capacity_blocks ?faults ~clock ~profile name =
  { name; clock; profile; capacity_blocks; current = Blockvec.create Zero;
    durable = Blockvec.create Zero;
    sched = Iosched.create sched; pending = []; st = zero_stats; faults; sink = None }

let set_obs t obs = t.sink <- Option.map (bind t.name) obs

let profile t = t.profile
let clock t = t.clock
let capacity_blocks t = t.capacity_blocks
let busy_until t = Iosched.horizon t.sched
let sched_stats t = Iosched.stats t.sched
let faults t = t.faults
let set_faults t inj = t.faults <- inj

let check_index t i =
  if i < 0 then invalid_arg "Blockdev: negative block index";
  match t.capacity_blocks with
  | Some cap when i >= cap ->
    invalid_arg (Printf.sprintf "Blockdev %s: block %d beyond capacity %d" t.name i cap)
  | _ -> ()

let stored t i =
  check_index t i;
  Blockvec.get t.current i

(* Every command's instrumentation, in one place: the metric cells,
   the [dev.io] tracepoint and, for a queued transfer (running from
   [start_at] to [end_at] on the device timeline), a [dev.<op>] span on
   the device's track. [commands] counts transfers: one per extent. *)
let note_command t cmd ~cls ~commands ~blocks ~start_at ~end_at cost =
  match t.sink with
  | None -> ()
  | Some o ->
    let cls = Iosched.cls_name cls in
    Metrics.add o.commands commands;
    Metrics.observe_duration o.xfer_us cost;
    (match cmd with
     | Read | Batch_read -> Metrics.add o.read_blocks blocks
     | Write | Extents | Oob -> Metrics.add o.written_blocks blocks);
    (match cmd with
     | Read | Write -> ()
     | Batch_read ->
       Span.record o.spans ~track:t.name ~name:"dev.read"
         ~attrs:[ ("blocks", string_of_int blocks); ("cls", cls) ] ~start_at ~end_at ()
     | Extents ->
       Span.record o.spans ~track:t.name ~name:"dev.write"
         ~attrs:
           [ ("blocks", string_of_int blocks); ("extents", string_of_int commands);
             ("cls", cls) ]
         ~start_at ~end_at ()
     | Oob ->
       (* The critical-path analyzer must see black-box traffic
          overlapping the flush window to blame it. *)
       Span.record o.spans ~track:t.name ~name:"dev.oob"
         ~attrs:[ ("blocks", string_of_int blocks); ("cls", "bg") ] ~start_at ~end_at ());
    if Probe.enabled o.probes Probe.Dev_io then
      Probe.fire o.probes Probe.Dev_io ~dev:t.name
        ~op:
          (match cmd with
           | Read | Batch_read -> "read"
           | Write | Extents -> "write"
           | Oob -> "oob")
        ~cls ~gen:(-1) ~pgid:(-1) ~us:(Duration.to_us cost) ~blocks

(* Charge a synchronous command: the device may still be draining its
   queue, so completion is max(now, busy_until) + cost. *)
let charge_sync t ~cls ~op ~blocks =
  let cost = Profile.transfer_cost t.profile ~op ~bytes:(blocks * block_size) in
  let start, completion =
    Iosched.schedule t.sched ~now:(Clock.now t.clock) ~cls ~cost ~blocks
  in
  note_command t (match op with `Read -> Read | `Write -> Write) ~cls ~commands:1
    ~blocks ~start_at:start ~end_at:completion cost;
  Clock.advance_to t.clock completion

(* The command's time is charged before the fault surfaces: a failed
   read costs as much as a successful one. *)
let inject_read_fault t i =
  match t.faults with
  | None -> ()
  | Some inj ->
    if Fault.is_dropped inj then raise (Fault.Io_error (Fault.Dropped { dev = t.name }));
    if Fault.draw_transient_read inj then
      raise (Fault.Io_error (Fault.Transient { dev = t.name; op = `Read; phys = i }));
    if Fault.is_latent inj i then begin
      Fault.note_latent inj;
      raise (Fault.Io_error (Fault.Latent { dev = t.name; phys = i }))
    end

let read ?(cls = Iosched.Foreground) t i =
  charge_sync t ~cls ~op:`Read ~blocks:1;
  t.st <- { t.st with reads = t.st.reads + 1; blocks_read = t.st.blocks_read + 1 };
  inject_read_fault t i;
  stored t i

let peek t i = stored t i

(* Batch reads are best-effort DMA: a dropped device or latent sector
   yields [Zero] for the affected blocks instead of failing the whole
   transfer (and transient errors are not injected per block). Callers
   that need certainty — the store — verify each payload against its
   checksum and re-issue failed blocks as single reads, which do
   surface faults. *)
let batch_content t i =
  match t.faults with
  | None -> stored t i
  | Some inj ->
    if Fault.is_dropped inj then Zero
    else if Fault.is_latent inj i then begin
      Fault.note_latent inj;
      Zero
    end
    else stored t i

(* One batched read command of [blocks] blocks: latency charged once,
   bandwidth per block. The payloads come from [batch_content]. *)
let queue_batch_read ?(cls = Iosched.Foreground) t ~blocks =
  if blocks = 0 then Duration.max (Clock.now t.clock) (busy_until t)
  else begin
    let cost = Profile.transfer_cost t.profile ~op:`Read ~bytes:(blocks * block_size) in
    let start, completion =
      Iosched.schedule t.sched ~now:(Clock.now t.clock) ~cls ~cost ~blocks
    in
    t.st <- { t.st with reads = t.st.reads + 1; blocks_read = t.st.blocks_read + blocks };
    note_command t Batch_read ~cls ~commands:1 ~blocks ~start_at:start ~end_at:completion
      cost;
    completion
  end

let store_block t ~completed i c =
  (match c with
   | Data s when String.length s > block_size ->
     invalid_arg "Blockdev.write: content larger than a block"
   | Data _ | Seed _ | Zero -> ());
  check_index t i;
  Blockvec.set t.current i c;
  if completed && not t.profile.Profile.volatile_cache then Blockvec.set t.durable i c

let corrupt_content inj = function
  | Data s when String.length s > 0 ->
    let b = Bytes.of_string s in
    let pos = Fault.pick inj (Bytes.length b) in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl Fault.pick inj 8)));
    Data (Bytes.to_string b)
  | Data _ -> Data "\x01"
  | Seed s -> Seed (Int64.logxor s (Int64.shift_left 1L (Fault.pick inj 63)))
  | Zero -> Seed 0x00DEAD_BEEFL

let max_write_retries = 4

(* Apply the fault model to a write submission, write by write in
   column order. Transient write errors are retried by the device
   controller with exponential backoff — the returned extra cost is
   added to the transfer and so shows up in simulated time; retries
   exhausted raises. A write that lands clears any latent error on its
   sector (the drive remaps it), which is what makes
   read-repair-by-rewrite actually heal. Silent corruption replaces
   the payload in [contents]; only an end-to-end checksum can tell. *)
let apply_write_faults t blocks contents =
  match t.faults with
  | None -> Duration.zero
  | Some inj ->
    if Fault.is_dropped inj then raise (Fault.Io_error (Fault.Dropped { dev = t.name }));
    let retry_cost = ref Duration.zero in
    Array.iteri
      (fun i block ->
        let rec attempt n =
          if Fault.draw_transient_write inj then begin
            if n >= max_write_retries then
              raise
                (Fault.Io_error (Fault.Transient { dev = t.name; op = `Write; phys = block }));
            retry_cost :=
              Duration.add !retry_cost (Duration.scale t.profile.Profile.write_latency (1 lsl n));
            attempt (n + 1)
          end
        in
        attempt 0;
        Fault.clear_latent inj block;
        if Fault.draw_corruption inj then contents.(i) <- corrupt_content inj contents.(i))
      blocks;
    !retry_cost

let write_many ?(cls = Iosched.Foreground) t blocks contents =
  let retry_cost = apply_write_faults t blocks contents in
  let n = Array.length blocks in
  if n > 0 then charge_sync t ~cls ~op:`Write ~blocks:n;
  if Duration.(retry_cost > zero) then begin
    Iosched.extend t.sched retry_cost;
    (match Iosched.config t.sched with
     | Iosched.Fifo -> Clock.advance_to t.clock (busy_until t)
     | Iosched.Wdrr _ ->
       (* The retried command may have been served from reserved slack
          ahead of the queue tail; the caller still waits out the
          retries, but not the whole bulk horizon. *)
       Clock.advance t.clock retry_cost)
  end;
  t.st <- { t.st with writes = t.st.writes + 1; blocks_written = t.st.blocks_written + n };
  Array.iteri (fun i b -> store_block t ~completed:true b contents.(i)) blocks

let write ?cls t i c = write_many ?cls t [| i |] [| c |]

(* When an empty submission would have completed. *)
let idle_completion ?not_before t =
  let start = Duration.max (Clock.now t.clock) (busy_until t) in
  match not_before with
  | Some at -> Duration.max start at
  | None -> start

(* Queue one submission of [transfers] transfers costing [cost] in all
   (latency per transfer, bandwidth per block, controller retries
   included); it completes — and, on non-volatile caches, becomes
   durable — when the last transfer drains. Content is visible
   immediately (the store serializes access), but the batch is
   remembered as in flight so a crash before completion can drop
   it. *)
let queue_writes ?not_before ~cls t blocks contents ~transfers ~cost =
  let n = Array.length blocks in
  let start, completion =
    Iosched.schedule t.sched ~now:(Clock.now t.clock) ?not_before ~cls ~cost ~blocks:n
  in
  t.st <- { t.st with writes = t.st.writes + transfers;
                      blocks_written = t.st.blocks_written + n };
  note_command t Extents ~cls ~commands:transfers ~blocks:n ~start_at:start ~end_at:completion
    cost;
  Array.iteri (fun i b -> store_block t ~completed:false b contents.(i)) blocks;
  t.pending <- { done_at = completion; blocks; contents } :: t.pending;
  completion

let write_cost t ~blocks = Profile.transfer_cost t.profile ~op:`Write ~bytes:(blocks * block_size)

let write_sorted ?not_before ?(cls = Iosched.Flush) t blocks contents =
  let n = Array.length blocks in
  if Array.length contents <> n then invalid_arg "Blockdev.write_sorted: column lengths differ";
  if n = 0 then idle_completion ?not_before t
  else begin
    (* A run continues while each block is at most one past the one
       before it; a repeated block stays in its run. *)
    let cost = ref Duration.zero and transfers = ref 1 and run = ref 1 in
    for i = 1 to n - 1 do
      if blocks.(i) < blocks.(i - 1) then
        invalid_arg "Blockdev.write_sorted: blocks not in ascending order";
      if blocks.(i) > blocks.(i - 1) + 1 then begin
        cost := Duration.add !cost (write_cost t ~blocks:!run);
        incr transfers;
        run := 0
      end;
      incr run
    done;
    let cost = Duration.add !cost (write_cost t ~blocks:!run) in
    let retry_cost = apply_write_faults t blocks contents in
    queue_writes ?not_before ~cls t blocks contents ~transfers:!transfers
      ~cost:(Duration.add retry_cost cost)
  end

(* A small control write on its own submission queue: charged from the
   current instant instead of behind queued data transfers — modeling a
   separate NVMe queue pair for out-of-band metadata (the store's black
   box). It does not extend [busy_until], so a crash can find it
   durable while an earlier, larger data submission is still in flight.
   Crash and durability semantics are otherwise write_sorted's. *)
let write_oob t blocks contents =
  let retry_cost = apply_write_faults t blocks contents in
  let n = Array.length blocks in
  if n = 0 then Clock.now t.clock
  else begin
    let start = Clock.now t.clock in
    let cost = Duration.add retry_cost (write_cost t ~blocks:n) in
    let completion = Duration.add start cost in
    (* Timing stays out-of-band (its own queue pair, charged from now),
       but the traffic is accounted to the Background class. *)
    Iosched.note_unscheduled t.sched ~cls:Iosched.Background ~cost ~blocks:n;
    t.st <- { t.st with writes = t.st.writes + 1;
                        blocks_written = t.st.blocks_written + n };
    note_command t Oob ~cls:Iosched.Background ~commands:1 ~blocks:n
      ~start_at:start ~end_at:completion cost;
    Array.iteri (fun i b -> store_block t ~completed:false b contents.(i)) blocks;
    t.pending <- { done_at = completion; blocks; contents } :: t.pending;
    completion
  end

let settle_pending t =
  (* Batches whose completion time has passed are done: their writes
     are durable (unless the cache is volatile). Oldest first, so a
     block rewritten by a later batch keeps the later content. *)
  let now = Clock.now t.clock in
  let still, done_ =
    List.partition (fun b -> Duration.(b.done_at > now)) t.pending
  in
  if not t.profile.Profile.volatile_cache then
    List.iter
      (fun batch ->
        Array.iteri (fun i b -> Blockvec.set t.durable b batch.contents.(i)) batch.blocks)
      (List.rev done_);
  t.pending <- still

let settle t = settle_pending t

let await t completion =
  Clock.advance_to t.clock completion;
  settle_pending t

let flush t =
  Clock.advance_to t.clock (busy_until t);
  Clock.advance t.clock t.profile.Profile.flush_latency;
  t.pending <- [];
  t.st <- { t.st with flushes = t.st.flushes + 1 };
  for i = 0 to Blockvec.length t.current - 1 do
    Blockvec.set t.durable i (Blockvec.get t.current i)
  done

let crash t =
  (* Batches that completed (in simulated time) before the failure are
     durable; queued-but-incomplete ones never happened. *)
  settle_pending t;
  t.pending <- [];
  Iosched.reset_to t.sched (Clock.now t.clock);
  for i = 0 to Blockvec.length t.current - 1 do
    Blockvec.set t.current i (Blockvec.get t.durable i)
  done

let stats t = t.st
let reset_stats t = t.st <- zero_stats

let used_blocks t =
  let n = ref 0 in
  for i = 0 to Blockvec.length t.current - 1 do
    match Blockvec.get t.current i with Zero -> () | Data _ | Seed _ -> incr n
  done;
  !n
