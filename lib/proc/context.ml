open Aurora_simtime

type t = {
  mutable program : string;
  mutable pc : int;
  regs : int64 array;
}

let nregs = 16
let create ~program = { program; pc = 0; regs = Array.make nregs 0L }

let check_reg i =
  if i < 0 || i >= nregs then invalid_arg (Printf.sprintf "Context: bad register %d" i)

let reg t i =
  check_reg i;
  t.regs.(i)

let set_reg t i v =
  check_reg i;
  t.regs.(i) <- v

let reg_int t i = Int64.to_int (reg t i)
let set_reg_int t i v = set_reg t i (Int64.of_int v)

let serialize t w =
  Serial.w_string w t.program;
  Serial.w_int w t.pc;
  Serial.w_list w Serial.w_int64 (Array.to_list t.regs)

let deserialize r =
  let program = Serial.r_string r in
  let pc = Serial.r_int r in
  let regs = Serial.r_list r Serial.r_int64 in
  if List.length regs <> nregs then
    raise (Serial.Corrupt "Context: wrong register count");
  { program; pc; regs = Array.of_list regs }
