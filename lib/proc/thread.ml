open Aurora_simtime

type wait =
  | Wait_read of int
  | Wait_write of int
  | Wait_accept of int
  | Wait_sem of int
  | Wait_sleep_until of Duration.t
  | Wait_child of int
  | Wait_forever

type state = Runnable | Blocked of wait | Exited of int

type t = {
  tid : int;
  mutable state : state;
  context : Context.t;
}

let create ~tid ~program = { tid; state = Runnable; context = Context.create ~program }
let is_runnable t = t.state = Runnable
let is_exited t = match t.state with Exited _ -> true | Runnable | Blocked _ -> false

let w_wait w = function
  | Wait_read oid ->
    Serial.w_u8 w 0;
    Serial.w_int w oid
  | Wait_write oid ->
    Serial.w_u8 w 1;
    Serial.w_int w oid
  | Wait_accept oid ->
    Serial.w_u8 w 2;
    Serial.w_int w oid
  | Wait_sem oid ->
    Serial.w_u8 w 3;
    Serial.w_int w oid
  | Wait_sleep_until d ->
    Serial.w_u8 w 4;
    Serial.w_int w (Duration.to_ns d)
  | Wait_child pid ->
    Serial.w_u8 w 5;
    Serial.w_int w pid
  | Wait_forever -> Serial.w_u8 w 6

let r_wait r =
  match Serial.r_u8 r with
  | 0 -> Wait_read (Serial.r_int r)
  | 1 -> Wait_write (Serial.r_int r)
  | 2 -> Wait_accept (Serial.r_int r)
  | 3 -> Wait_sem (Serial.r_int r)
  | 4 -> Wait_sleep_until (Duration.nanoseconds (Serial.r_int r))
  | 5 -> Wait_child (Serial.r_int r)
  | 6 -> Wait_forever
  | v -> raise (Serial.Corrupt (Printf.sprintf "Thread: bad wait tag %d" v))

let serialize t w =
  Serial.w_int w t.tid;
  (match t.state with
   | Runnable -> Serial.w_u8 w 0
   | Blocked wait ->
     Serial.w_u8 w 1;
     w_wait w wait
   | Exited code ->
     Serial.w_u8 w 2;
     Serial.w_int w code);
  Context.serialize t.context w

let deserialize r =
  let tid = Serial.r_int r in
  let state =
    match Serial.r_u8 r with
    | 0 -> Runnable
    | 1 -> Blocked (r_wait r)
    | 2 -> Exited (Serial.r_int r)
    | v -> raise (Serial.Corrupt (Printf.sprintf "Thread: bad state tag %d" v))
  in
  let context = Context.deserialize r in
  { tid; state; context }
