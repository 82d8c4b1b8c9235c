open Aurora_simtime

type filter = Evt_read | Evt_write | Evt_timer | Evt_user

type t = {
  oid : int;
  mutable registered : (int * filter) list;
  mutable pending : (int * filter) list; (* oldest first *)
}

let create ~oid () = { oid; registered = []; pending = [] }
let oid t = t.oid

let register t ~ident filter =
  if not (List.mem (ident, filter) t.registered) then
    t.registered <- t.registered @ [ (ident, filter) ]

let registered t = t.registered

let trigger t ~ident filter =
  if List.mem (ident, filter) t.registered && not (List.mem (ident, filter) t.pending)
  then t.pending <- t.pending @ [ (ident, filter) ]

let harvest t ~max =
  if max < 0 then invalid_arg "Kqueue.harvest: negative max";
  let rec take n = function
    | [] -> ([], [])
    | rest when n = 0 -> ([], rest)
    | e :: rest ->
      let taken, left = take (n - 1) rest in
      (e :: taken, left)
  in
  let events, rest = take max t.pending in
  t.pending <- rest;
  events

let pending_count t = List.length t.pending

let int_of_filter = function
  | Evt_read -> 0
  | Evt_write -> 1
  | Evt_timer -> 2
  | Evt_user -> 3

let filter_of_int = function
  | 0 -> Evt_read
  | 1 -> Evt_write
  | 2 -> Evt_timer
  | 3 -> Evt_user
  | v -> raise (Serial.Corrupt (Printf.sprintf "Kqueue: bad filter tag %d" v))

let w_event w (ident, f) =
  Serial.w_int w ident;
  Serial.w_u8 w (int_of_filter f)

let r_event r =
  let ident = Serial.r_int r in
  let f = filter_of_int (Serial.r_u8 r) in
  (ident, f)

let serialize t w =
  Serial.w_int w t.oid;
  Serial.w_list w w_event t.registered;
  Serial.w_list w w_event t.pending

let deserialize r =
  let oid = Serial.r_int r in
  let registered = Serial.r_list r r_event in
  let pending = Serial.r_list r r_event in
  { oid; registered; pending }
