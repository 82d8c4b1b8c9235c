open Aurora_simtime

type t = {
  oid : int;
  fifo : Fifo.t;
  mutable read_open : bool;
  mutable write_open : bool;
}

let default_capacity = 65536

let create ~oid ?(capacity = default_capacity) () =
  { oid; fifo = Fifo.create ~capacity; read_open = true; write_open = true }

let oid t = t.oid
let buffered t = Fifo.length t.fifo

let write t data =
  if not t.read_open then `Broken
  else if Fifo.space t.fifo = 0 then `Would_block
  else `Written (Fifo.push t.fifo data)

let read t ~max =
  if not (Fifo.is_empty t.fifo) then `Data (Fifo.pop t.fifo ~max)
  else if not t.write_open then `Eof
  else `Would_block

let close_read t = t.read_open <- false
let close_write t = t.write_open <- false
let read_open t = t.read_open
let write_open t = t.write_open

let serialize t w =
  Serial.w_int w t.oid;
  Fifo.serialize t.fifo w;
  Serial.w_bool w t.read_open;
  Serial.w_bool w t.write_open

let deserialize r =
  let oid = Serial.r_int r in
  let fifo = Fifo.deserialize r in
  let read_open = Serial.r_bool r in
  let write_open = Serial.r_bool r in
  { oid; fifo; read_open; write_open }
