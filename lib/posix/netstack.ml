open Aurora_simtime

type endpoint = Unixsock.t

type t = { ports : (int, int) Hashtbl.t (* port -> listener oid *) }

let create () = { ports = Hashtbl.create 16 }

let port_name port = Printf.sprintf "tcp:%d" port

let port_of_name name =
  match String.split_on_char ':' name with
  | [ "tcp"; p ] -> int_of_string_opt p
  | _ -> None

let listen t ep ~port ~backlog =
  if Hashtbl.mem t.ports port then
    invalid_arg (Printf.sprintf "Netstack.listen: port %d in use" port);
  Unixsock.listen ep ~name:(port_name port) ~backlog;
  Hashtbl.replace t.ports port (Unixsock.oid ep)

let listener_on t ~port = Hashtbl.find_opt t.ports port

let connect t ~src ~port ~peer_oid ~lookup =
  match Hashtbl.find_opt t.ports port with
  | None -> `Refused
  | Some listener_oid -> (
    match lookup listener_oid with
    | None -> `Refused
    | Some listener -> Unixsock.connect src ~listener ~peer_oid)

let release_port t ~port = Hashtbl.remove t.ports port

let rebind t ep =
  match Unixsock.bound_name ep with
  | Some name -> (
    match port_of_name name with
    | Some port -> Hashtbl.replace t.ports port (Unixsock.oid ep)
    | None -> invalid_arg "Netstack.rebind: endpoint has no port binding")
  | None -> invalid_arg "Netstack.rebind: endpoint not bound"

let serialize t w =
  let bindings =
    Hashtbl.fold (fun port oid acc -> (port, oid) :: acc) t.ports []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  Serial.w_list w (fun w (port, oid) ->
      Serial.w_int w port;
      Serial.w_int w oid)
    bindings

let deserialize r =
  let bindings =
    Serial.r_list r (fun r ->
        let port = Serial.r_int r in
        let oid = Serial.r_int r in
        (port, oid))
  in
  let t = create () in
  List.iter (fun (port, oid) -> Hashtbl.replace t.ports port oid) bindings;
  t
