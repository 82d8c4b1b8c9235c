open Aurora_simtime
open Aurora_vm

type flavor = Posix_shm | Sysv_shm

type t = {
  oid : int;
  flavor : flavor;
  name : string;
  npages : int;
  obj : Vmobject.t;
  mutable attach_count : int;
}

let create ~oid ~pool ~flavor ~name ~npages =
  if npages <= 0 then invalid_arg "Shm.create: npages <= 0";
  { oid; flavor; name; npages; obj = Vmobject.create ~pool Vmobject.Anonymous;
    attach_count = 0 }

let oid t = t.oid
let name t = t.name
let flavor t = t.flavor
let npages t = t.npages
let vmobject t = t.obj
let attach t = t.attach_count <- t.attach_count + 1

let detach t =
  if t.attach_count <= 0 then invalid_arg "Shm.detach: not attached";
  t.attach_count <- t.attach_count - 1

let attach_count t = t.attach_count

let serialize t w =
  Serial.w_int w t.oid;
  Serial.w_u8 w (match t.flavor with Posix_shm -> 0 | Sysv_shm -> 1);
  Serial.w_string w t.name;
  Serial.w_int w t.npages;
  Serial.w_int w (Vmobject.oid t.obj);
  Serial.w_int w t.attach_count

let deserialize r ~restore_obj =
  let oid = Serial.r_int r in
  let flavor =
    match Serial.r_u8 r with
    | 0 -> Posix_shm
    | 1 -> Sysv_shm
    | v -> raise (Serial.Corrupt (Printf.sprintf "Shm: bad flavor tag %d" v))
  in
  let name = Serial.r_string r in
  let npages = Serial.r_int r in
  let obj_oid = Serial.r_int r in
  let attach_count = Serial.r_int r in
  { oid; flavor; name; npages; obj = restore_obj obj_oid ~npages; attach_count }
