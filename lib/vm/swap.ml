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
  let writes =
    List.map
      (fun { Clockalg.obj; pindex } ->
        let slot = t.next_slot in
        t.next_slot <- t.next_slot + 1;
        let content = Vmobject.page_out obj pindex ~read_cost:cost in
        (slot, Blockdev.Seed (Content.to_seed content)))
      victims
  in
  if writes <> [] then begin
    Blockdev.write_many t.dev writes;
    t.pages_swapped <- t.pages_swapped + List.length writes
  end;
  List.length writes

let rebalance t ~objects =
  let over = Frame.over_capacity t.pool in
  if over = 0 then 0 else evict t ~objects ~want:over

let pages_swapped t = t.pages_swapped
