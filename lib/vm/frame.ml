type pool = {
  mutable resident : int;
  mutable total_allocated : int;
}

let create_pool () = { resident = 0; total_allocated = 0 }

let alloc pool =
  pool.resident <- pool.resident + 1;
  pool.total_allocated <- pool.total_allocated + 1

let release pool n =
  if n < 0 || n > pool.resident then invalid_arg "Frame.release: not that many resident";
  pool.resident <- pool.resident - n

let resident pool = pool.resident
let total_allocated pool = pool.total_allocated
