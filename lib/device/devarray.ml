open Aurora_simtime

type t = {
  name : string;
  stripes : int;
  devs : Blockdev.t array;
}

let create ?sched ?stripes ?capacity_blocks ?faults ~clock ~profile name =
  let stripes =
    match stripes with Some n -> n | None -> profile.Profile.stripes
  in
  if stripes < 1 then invalid_arg "Devarray.create: stripe count must be >= 1";
  let per_dev_capacity =
    Option.map (fun cap -> (cap + stripes - 1) / stripes) capacity_blocks
  in
  let injectors =
    match faults with
    | None -> Array.make stripes None
    | Some plan when Fault.is_none plan -> Array.make stripes None
    | Some plan -> Array.init stripes (fun i -> Some (Fault.injector ~dev_index:i plan))
  in
  let devs =
    Array.init stripes (fun i ->
        Blockdev.create ?sched ?capacity_blocks:per_dev_capacity
          ?faults:injectors.(i) ~clock ~profile
          (Printf.sprintf "%s.%d" name i))
  in
  { name; stripes; devs }

let set_obs t obs = Array.iter (fun dev -> Blockdev.set_obs dev obs) t.devs

let stripes t = t.stripes
let devices t = t.devs
let name t = t.name
let profile t = Blockdev.profile t.devs.(0)
let clock t = Blockdev.clock t.devs.(0)

(* Every device has the same per-device capacity; the stripe map is a
   bijection onto [0, stripes * per_dev). *)
let capacity_blocks t =
  Option.map
    (fun per_dev -> per_dev * t.stripes)
    (Blockdev.capacity_blocks t.devs.(0))

let locate t b =
  if b < 0 then invalid_arg "Devarray: negative block index";
  (b mod t.stripes, b / t.stripes)

let logical t ~dev ~phys =
  if dev < 0 || dev >= t.stripes then invalid_arg "Devarray.logical: bad device";
  if phys < 0 then invalid_arg "Devarray.logical: negative block";
  (phys * t.stripes) + dev

(* Each device's share of a submission of [n] writes, as one key per
   write, [phys * n + pos] for write [pos] to physical block [phys]:
   ordering keys orders by physical block first and submission position
   second. Counting the blocks per device first, as [read_many_arr]
   does, sizes each device's column exactly; keys go in in submission
   order. *)
let device_keys t blocks =
  let n = Array.length blocks in
  let counts = Array.make t.stripes 0 in
  Array.iter
    (fun b ->
      if b < 0 then invalid_arg "Devarray: negative block index";
      let d = b mod t.stripes in
      counts.(d) <- counts.(d) + 1)
    blocks;
  let keys = Array.map (fun c -> Array.make c 0) counts in
  Array.fill counts 0 t.stripes 0;
  Array.iteri
    (fun pos b ->
      let d = b mod t.stripes in
      keys.(d).(counts.(d)) <- ((b / t.stripes) * n) + pos;
      counts.(d) <- counts.(d) + 1)
    blocks;
  keys

(* Turn a device's keys into its physical blocks, in place, and return
   their contents in the same order. *)
let decode keys ~n contents =
  let cs = Array.map (fun k -> contents.(k mod n)) keys in
  Array.iteri (fun i k -> keys.(i) <- k / n) keys;
  cs

(* Sort a device's keys in place. Keys that already ascend are left as
   they are. Otherwise a submission is mostly a fresh extent in order,
   with a few record chunks and replicas out of place, so only the keys
   below the running maximum are taken out and sorted, and then merged
   back from the top. Keys are distinct: each carries its position. *)
let sort_keys keys =
  let n = Array.length keys in
  let late = ref 0 and top = ref min_int in
  for i = 0 to n - 1 do
    if keys.(i) < !top then incr late else top := keys.(i)
  done;
  if !late > 0 then begin
    let late_keys = Array.make !late 0 and kept = ref 0 in
    top := min_int;
    for i = 0 to n - 1 do
      let k = keys.(i) in
      if k < !top then late_keys.(i - !kept) <- k
      else begin
        top := k;
        keys.(!kept) <- k;
        incr kept
      end
    done;
    Array.sort Int.compare late_keys;
    (* Place the late keys from the largest down, each above the kept
       keys below it, shifting up the kept keys above it. *)
    let i = ref (!kept - 1) in
    for j = !late - 1 downto 0 do
      while !i >= 0 && keys.(!i) > late_keys.(j) do
        keys.(!i + j + 1) <- keys.(!i);
        decr i
      done;
      keys.(!i + j + 1) <- late_keys.(j)
    done
  end

(* --- synchronous I/O ------------------------------------------------ *)

let read ?cls t b =
  let d, phys = locate t b in
  Blockdev.read ?cls t.devs.(d) phys

(* Without [locate]'s tuple: lazy restore peeks once per page. *)
let peek t b =
  if b < 0 then invalid_arg "Devarray: negative block index";
  Blockdev.peek t.devs.(b mod t.stripes) (b / t.stripes)

(* One command per device touched, all starting now; the caller waits
   for the slowest. Results keep request order. Counting the blocks per
   device is all the partitioning a command needs, so nothing is
   allocated per block beyond the result. *)
let read_many_arr ?cls t indices =
  let n = Array.length indices in
  let results = Array.make n Blockdev.Zero in
  if n > 0 then begin
    let per_dev = Array.make t.stripes 0 in
    Array.iter
      (fun b ->
        if b < 0 then invalid_arg "Devarray: negative block index";
        let d = b mod t.stripes in
        per_dev.(d) <- per_dev.(d) + 1)
      indices;
    let completion = ref Duration.zero in
    Array.iteri
      (fun d blocks ->
        if blocks > 0 then
          completion :=
            Duration.max !completion (Blockdev.queue_batch_read ?cls t.devs.(d) ~blocks))
      per_dev;
    Array.iteri
      (fun pos b ->
        results.(pos) <- Blockdev.batch_content t.devs.(b mod t.stripes) (b / t.stripes))
      indices;
    Clock.advance_to (clock t) !completion;
    Array.iter Blockdev.settle t.devs
  end;
  results

(* --- asynchronous I/O ----------------------------------------------- *)

(* Out-of-band control writes: each touched device takes its share, in
   submission order, on its dedicated submission queue (see
   {!Blockdev.write_oob}), so they can land while larger queued data
   transfers are still draining. *)
let write_oob t blocks contents =
  let n = Array.length blocks in
  let completion = ref Duration.zero in
  Array.iteri
    (fun d keys ->
      if Array.length keys > 0 then begin
        let cs = decode keys ~n contents in
        completion := Duration.max !completion (Blockdev.write_oob t.devs.(d) keys cs)
      end)
    (device_keys t blocks);
  !completion

let busy_until t =
  Array.fold_left
    (fun acc dev -> Duration.max acc (Blockdev.busy_until dev))
    Duration.zero t.devs

let write_async_arr ?not_before ?cls t blocks contents =
  let n = Array.length blocks in
  if Array.length contents <> n then invalid_arg "Devarray.write_async_arr: column lengths differ";
  let completion = ref Duration.zero in
  Array.iteri
    (fun d keys ->
      if Array.length keys > 0 then begin
        sort_keys keys;
        let cs = decode keys ~n contents in
        let done_at = Blockdev.write_sorted ?not_before ?cls t.devs.(d) keys cs in
        completion := Duration.max !completion done_at
      end)
    (device_keys t blocks);
  if Duration.equal !completion Duration.zero then
    Duration.max (Clock.now (clock t)) (busy_until t)
  else !completion

let await t completion =
  Clock.advance_to (clock t) completion;
  Array.iter Blockdev.settle t.devs

let write ?cls t b c = await t (write_async_arr ?cls t [| b |] [| c |])

let flush t =
  (* Drain every queue first so the per-device flush barriers overlap
     the drain instead of serializing behind each other. *)
  Clock.advance_to (clock t) (busy_until t);
  Array.iter Blockdev.flush t.devs

let crash t = Array.iter Blockdev.crash t.devs

(* --- stats ---------------------------------------------------------- *)

let device_stats t = Array.map Blockdev.stats t.devs

let stats t =
  Array.fold_left
    (fun acc (s : Blockdev.stats) ->
      Blockdev.
        {
          reads = acc.reads + s.reads;
          writes = acc.writes + s.writes;
          blocks_read = acc.blocks_read + s.blocks_read;
          blocks_written = acc.blocks_written + s.blocks_written;
          flushes = acc.flushes + s.flushes;
        })
    Blockdev.{ reads = 0; writes = 0; blocks_read = 0; blocks_written = 0; flushes = 0 }
    (device_stats t)

let sched_stats t =
  Array.fold_left
    (fun acc dev -> Iosched.add_stats acc (Blockdev.sched_stats dev))
    Iosched.zero_stats t.devs

let reset_stats t = Array.iter Blockdev.reset_stats t.devs

let used_blocks t =
  Array.fold_left (fun acc dev -> acc + Blockdev.used_blocks dev) 0 t.devs

(* --- fault injection -------------------------------------------------- *)

let has_faults t =
  Array.exists (fun dev -> Blockdev.faults dev <> None) t.devs

(* Tests and the fault-sweep bench inject faults mid-run; a device
   without an injector gets a zero-rate one on demand. *)
let injector_of t d =
  if d < 0 || d >= t.stripes then invalid_arg "Devarray: bad device index";
  match Blockdev.faults t.devs.(d) with
  | Some inj -> inj
  | None ->
    let inj = Fault.injector ~dev_index:d (Fault.plan ()) in
    Blockdev.set_faults t.devs.(d) (Some inj);
    inj

let inject_latent t b =
  let d, phys = locate t b in
  Fault.add_latent (injector_of t d) phys

let drop_device t d = Fault.set_dropped (injector_of t d) true

let fault_stats t =
  Array.fold_left
    (fun acc dev ->
      match Blockdev.faults dev with
      | Some inj -> Fault.add_stats acc (Fault.stats inj)
      | None -> acc)
    Fault.zero_stats t.devs
