open Aurora_simtime
open Aurora_device
open Aurora_posix

type stop_reason = Deadline | Idle | All_exited

(* Minimum charge per program step: even a tight user-mode loop
   consumes cycles, and it guarantees the clock advances so run loops
   terminate. *)
let step_floor = Duration.nanoseconds 100

let wait_satisfied (k : Kernel.t) = function
  | Thread.Wait_forever -> false
  | Thread.Wait_sleep_until d -> Duration.(Clock.now k.Kernel.clock >= d)
  | Thread.Wait_read oid -> (
    match Registry.find k.Kernel.registry oid with
    | Some (Registry.Kpipe p) ->
      Pipe.buffered p > 0 || not (Pipe.write_open p)
    | Some (Registry.Kusock s) | Some (Registry.Ktcp s) -> (
      Unixsock.buffered s > 0
      ||
      match Unixsock.recv s ~max:0 with
      | `Eof -> true
      | `Data _ | `Would_block -> false)
    | Some (Registry.Kmsgq q) -> Msgq.message_count q > 0
    | Some (Registry.Kkq kq) -> Kqueue.pending_count kq > 0
    | Some _ | None -> true (* stale object: wake and let the syscall fail *))
  | Thread.Wait_write oid -> (
    match Registry.find k.Kernel.registry oid with
    | Some (Registry.Kpipe p) -> Pipe.buffered p < Pipe.default_capacity || not (Pipe.read_open p)
    | Some (Registry.Kusock s) | Some (Registry.Ktcp s) -> (
      match Unixsock.state s with
      | Unixsock.Connected { peer } -> (
        match Kernel.lookup_stream k peer with
        | Some p -> Unixsock.buffered p < 65536
        | None -> true)
      | _ -> true)
    | Some _ | None -> true)
  | Thread.Wait_accept oid -> (
    match Kernel.lookup_stream k oid with
    | Some s -> (
      match Unixsock.state s with
      | Unixsock.Listening { pending; _ } -> pending <> []
      | _ -> true)
    | None -> true)
  | Thread.Wait_sem oid -> (
    match Registry.sem k.Kernel.registry oid with
    | Some s -> Semaphore.value s > 0
    | None -> true)
  | Thread.Wait_child want ->
    List.exists
      (fun c -> Process.is_zombie c && (want = -1 || c.Process.pid = want))
      (Kernel.processes k)

let wakeup_pass k =
  List.iter
    (fun p ->
      List.iter
        (fun th ->
          match th.Thread.state with
          | Thread.Blocked w when wait_satisfied k w -> th.Thread.state <- Thread.Runnable
          | Thread.Blocked _ | Thread.Runnable | Thread.Exited _ -> ())
        p.Process.threads)
    (Kernel.processes k)

let runnable_threads k =
  List.concat_map
    (fun p ->
      if Process.is_zombie p then []
      else List.filter Thread.is_runnable p.Process.threads |> List.map (fun th -> (p, th)))
    (Kernel.processes k)

let step_thread k (p : Process.t) (th : Thread.t) =
  let program = th.Thread.context.Context.program in
  match Program.find program with
  | None ->
    (* No such binary: the process dies (simulated SIGSYS). *)
    Syscall.exit_process k p 127
  | Some step -> (
    Kernel.charge k step_floor;
    match step k p th with
    | Program.Continue | Program.Yield -> ()
    | Program.Block w -> th.Thread.state <- Thread.Blocked w
    | Program.Exit_program code -> Syscall.exit_process k p code)

let step_all k =
  let runnable = runnable_threads k in
  List.iter
    (fun (p, th) ->
      (* A thread may have exited or blocked due to an earlier step in
         this same pass (e.g. its process was killed). *)
      if (not (Process.is_zombie p)) && Thread.is_runnable th then begin
        Kernel.charge k Costmodel.context_switch;
        step_thread k p th
      end)
    runnable;
  List.length runnable

let earliest_sleep k =
  List.fold_left
    (fun acc p ->
      List.fold_left
        (fun acc th ->
          match th.Thread.state with
          | Thread.Blocked (Thread.Wait_sleep_until d) -> (
            match acc with
            | None -> Some d
            | Some best -> Some (Duration.min best d))
          | _ -> acc)
        acc p.Process.threads)
    None (Kernel.processes k)

let live_thread_count k =
  List.fold_left
    (fun acc p ->
      if Process.is_zombie p then acc else acc + List.length (Process.live_threads p))
    0 (Kernel.processes k)

let run k ~until =
  let rec loop () =
    if Duration.(Clock.now k.Kernel.clock >= until) then Deadline
    else if live_thread_count k = 0 then All_exited
    else begin
      wakeup_pass k;
      let steps = step_all k in
      if steps > 0 then loop ()
      else
        match earliest_sleep k with
        | Some d when Duration.(d <= until) ->
          Clock.advance_to k.Kernel.clock d;
          loop ()
        | Some _ ->
          (* Everyone is asleep past the horizon: time just passes. *)
          Clock.advance_to k.Kernel.clock until;
          Deadline
        | None -> Idle
    end
  in
  loop ()

(* Step budget of [run_until_idle]: a guard against livelock in buggy
   programs. *)
let max_steps = 10_000_000

let run_until_idle k =
  let steps = ref 0 in
  let rec loop () =
    if live_thread_count k = 0 then All_exited
    else begin
      wakeup_pass k;
      let n = step_all k in
      steps := !steps + n;
      if !steps > max_steps then
        invalid_arg "Scheduler.run_until_idle: step budget exhausted (livelock?)";
      if n > 0 then loop ()
      else
        match earliest_sleep k with
        | Some d ->
          Clock.advance_to k.Kernel.clock d;
          loop ()
        | None -> Idle
    end
  in
  loop ()
