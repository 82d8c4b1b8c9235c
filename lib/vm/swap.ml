open Aurora_device

type t = {
  dev : Blockdev.t;
  pool : Frame.pool;
  clockalg : Clockalg.t;
  mutable next_slot : int;
  mutable pages_swapped : int;
}

let create ~dev ~pool =
  { dev; pool; clockalg = Clockalg.create (); next_slot = 0; pages_swapped = 0 }

let read_cost t =
  Profile.transfer_cost (Blockdev.profile t.dev) ~op:`Read ~bytes:Blockdev.block_size

let evict t ~objects ~want =
  let victims = Clockalg.sweep t.clockalg ~objects ~want in
  let cost = read_cost t in
  let contents =
    Array.of_list
      (List.map
         (fun { Clockalg.obj; pindex } ->
           Blockdev.Seed (Content.to_seed (Vmobject.page_out obj pindex ~read_cost:cost)))
         victims)
  in
  let n = Array.length contents in
  if n > 0 then begin
    Blockdev.write_many t.dev (Array.init n (fun i -> t.next_slot + i)) contents;
    t.next_slot <- t.next_slot + n;
    t.pages_swapped <- t.pages_swapped + n
  end;
  n

let rebalance t ~objects =
  let over = Frame.over_capacity t.pool in
  if over = 0 then 0 else evict t ~objects ~want:over

let pages_swapped t = t.pages_swapped
