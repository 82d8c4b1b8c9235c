type step_result =
  | Continue
  | Yield
  | Block of Thread.wait
  | Exit_program of int

type step_fn = Kernel.t -> Process.t -> Thread.t -> step_result

let table : (string, step_fn) Hashtbl.t = Hashtbl.create 16

let register ~name fn = Hashtbl.replace table name fn
let find name = Hashtbl.find_opt table name
