type t = {
  mutable content : Content.t;
  mutable refcount : int;
  mutable accessed : bool;
}

type pool = {
  capacity : int option;
  mutable resident : int;
  mutable total_allocated : int;
}

let create_pool ?capacity_pages () =
  (match capacity_pages with
   | Some c when c <= 0 -> invalid_arg "Frame.create_pool: capacity <= 0"
   | _ -> ());
  { capacity = capacity_pages; resident = 0; total_allocated = 0 }

let alloc pool content =
  pool.resident <- pool.resident + 1;
  pool.total_allocated <- pool.total_allocated + 1;
  { content; refcount = 1; accessed = true }

let incref f =
  if f.refcount <= 0 then invalid_arg "Frame.incref: dead frame";
  f.refcount <- f.refcount + 1

let decref pool f =
  if f.refcount <= 0 then invalid_arg "Frame.decref: dead frame";
  f.refcount <- f.refcount - 1;
  if f.refcount = 0 then pool.resident <- pool.resident - 1

let resident pool = pool.resident
let total_allocated pool = pool.total_allocated

let over_capacity pool =
  match pool.capacity with
  | None -> 0
  | Some c -> if pool.resident > c then pool.resident - c else 0
