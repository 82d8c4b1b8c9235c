open Aurora_simtime

type t = {
  oid : int;
  key : string;
  max_bytes : int;
  mutable msgs : (int * string) list; (* oldest first *)
  mutable used : int;
}

let create ~oid ?(max_bytes = 16384) ~key () =
  if max_bytes <= 0 then invalid_arg "Msgq.create: max_bytes <= 0";
  { oid; key; max_bytes; msgs = []; used = 0 }

let oid t = t.oid
let key t = t.key
let bytes_used t = t.used
let message_count t = List.length t.msgs

let send t ~mtype data =
  if mtype <= 0 then invalid_arg "Msgq.send: mtype must be positive";
  if t.used + String.length data > t.max_bytes then `Would_block
  else begin
    t.msgs <- t.msgs @ [ (mtype, data) ];
    t.used <- t.used + String.length data;
    `Ok
  end

let recv t ?mtype () =
  let matches (ty, _) = match mtype with None -> true | Some want -> ty = want in
  match List.find_opt matches t.msgs with
  | None -> `Would_block
  | Some ((ty, data) as msg) ->
    let removed = ref false in
    t.msgs <-
      List.filter
        (fun m ->
          if (not !removed) && m == msg then begin
            removed := true;
            false
          end
          else true)
        t.msgs;
    t.used <- t.used - String.length data;
    `Msg (ty, data)

let serialize t w =
  Serial.w_int w t.oid;
  Serial.w_string w t.key;
  Serial.w_int w t.max_bytes;
  Serial.w_list w (fun w (ty, d) ->
      Serial.w_int w ty;
      Serial.w_string w d)
    t.msgs

let deserialize r =
  let oid = Serial.r_int r in
  let key = Serial.r_string r in
  let max_bytes = Serial.r_int r in
  let msgs =
    Serial.r_list r (fun r ->
        let ty = Serial.r_int r in
        let d = Serial.r_string r in
        (ty, d))
  in
  let used = List.fold_left (fun acc (_, d) -> acc + String.length d) 0 msgs in
  { oid; key; max_bytes; msgs; used }
