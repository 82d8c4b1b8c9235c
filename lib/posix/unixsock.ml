open Aurora_simtime

type state =
  | Fresh
  | Listening of { backlog : int; mutable pending : int list }
  | Connected of { mutable peer : int }
  | Closed

type t = {
  oid : int;
  inbox : Fifo.t;
  mutable state : state;
  mutable bound_name : string option;
  mutable peer_closed : bool;
}

let default_capacity = 65536

let create ~oid ?(capacity = default_capacity) () =
  { oid; inbox = Fifo.create ~capacity; state = Fresh; bound_name = None;
    peer_closed = false }

let oid t = t.oid
let state t = t.state
let bound_name t = t.bound_name
let buffered t = Fifo.length t.inbox

let socketpair ~oid_a ~oid_b =
  let a = create ~oid:oid_a () and b = create ~oid:oid_b () in
  a.state <- Connected { peer = oid_b };
  b.state <- Connected { peer = oid_a };
  (a, b)

let listen t ~name ~backlog =
  (match t.state with
   | Fresh -> ()
   | Listening _ | Connected _ | Closed ->
     invalid_arg "Unixsock.listen: endpoint not fresh");
  if backlog <= 0 then invalid_arg "Unixsock.listen: backlog <= 0";
  t.bound_name <- Some name;
  t.state <- Listening { backlog; pending = [] }

let connect t ~listener ~peer_oid =
  match (t.state, listener.state) with
  | Fresh, Listening l when List.length l.pending < l.backlog ->
    let server_end = create ~oid:peer_oid () in
    server_end.state <- Connected { peer = t.oid };
    t.state <- Connected { peer = peer_oid };
    l.pending <- l.pending @ [ peer_oid ];
    `Connected server_end
  | _ -> `Refused

let accept t =
  match t.state with
  | Listening l -> (
    match l.pending with
    | [] -> `Would_block
    | oid :: rest ->
      l.pending <- rest;
      `Endpoint oid)
  | Fresh | Connected _ | Closed -> `Would_block

let send t ~lookup data =
  match t.state with
  | Connected { peer } -> (
    match lookup peer with
    | Some p when p.state <> Closed ->
      if Fifo.space p.inbox = 0 then `Would_block else `Sent (Fifo.push p.inbox data)
    | Some _ | None -> `Reset)
  | Fresh | Listening _ | Closed -> `Reset

let deliver t data = Fifo.push t.inbox data

let recv t ~max =
  if not (Fifo.is_empty t.inbox) then `Data (Fifo.pop t.inbox ~max)
  else if t.peer_closed || t.state = Closed then `Eof
  else
    match t.state with
    | Connected _ -> `Would_block
    | Fresh | Listening _ -> `Would_block
    | Closed -> `Eof

let close t ~lookup =
  (match t.state with
   | Connected { peer } -> (
     match lookup peer with
     | Some p -> p.peer_closed <- true
     | None -> ())
   | Fresh | Listening _ | Closed -> ());
  t.state <- Closed

let tag_of_state = function
  | Fresh -> 0
  | Listening _ -> 1
  | Connected _ -> 2
  | Closed -> 3

let serialize t w =
  Serial.w_int w t.oid;
  Fifo.serialize t.inbox w;
  Serial.w_u8 w (tag_of_state t.state);
  (match t.state with
   | Fresh | Closed -> ()
   | Listening { backlog; pending } ->
     Serial.w_int w backlog;
     Serial.w_list w Serial.w_int pending
   | Connected { peer } -> Serial.w_int w peer);
  Serial.w_option w Serial.w_string t.bound_name;
  Serial.w_bool w t.peer_closed

let deserialize r =
  let oid = Serial.r_int r in
  let inbox = Fifo.deserialize r in
  let state =
    match Serial.r_u8 r with
    | 0 -> Fresh
    | 1 ->
      let backlog = Serial.r_int r in
      let pending = Serial.r_list r Serial.r_int in
      Listening { backlog; pending }
    | 2 -> Connected { peer = Serial.r_int r }
    | 3 -> Closed
    | v -> raise (Serial.Corrupt (Printf.sprintf "Unixsock: bad state tag %d" v))
  in
  let bound_name = Serial.r_option r Serial.r_string in
  let peer_closed = Serial.r_bool r in
  { oid; inbox; state; bound_name; peer_closed }
