open Aurora_simtime

type t = { oid : int; name : string; mutable value : int }

let create ~oid ?(value = 0) ~name () =
  if value < 0 then invalid_arg "Semaphore.create: negative value";
  { oid; name; value }

let oid t = t.oid
let name t = t.name
let value t = t.value
let post t = t.value <- t.value + 1

let try_wait t =
  if t.value > 0 then begin
    t.value <- t.value - 1;
    `Ok
  end
  else `Would_block

let serialize t w =
  Serial.w_int w t.oid;
  Serial.w_string w t.name;
  Serial.w_int w t.value

let deserialize r =
  let oid = Serial.r_int r in
  let name = Serial.r_string r in
  let value = Serial.r_int r in
  { oid; name; value }
