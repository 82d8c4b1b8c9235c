open Aurora_simtime
open Aurora_posix
open Aurora_proc

let log_oid (g : Types.pgroup) = Oidspace.rrlog g.Types.pgid

let encode ~peer_oid data =
  let w = Serial.writer () in
  Serial.w_int w peer_oid;
  Serial.w_string w data;
  Serial.contents w

let decode entry =
  let r = Serial.reader entry in
  let peer_oid = Serial.r_int r in
  let data = Serial.r_string r in
  (peer_oid, data)

let record_input (g : Types.pgroup) ~peer_oid data =
  ignore (Ntlog.flush ~oid:(log_oid g) g (encode ~peer_oid data))

let recorded (g : Types.pgroup) = List.map decode (Ntlog.read ~oid:(log_oid g) g)
let on_checkpoint (g : Types.pgroup) = Ntlog.truncate ~oid:(log_oid g) g

let replay (k : Kernel.t) (g : Types.pgroup) =
  List.fold_left
    (fun n (peer_oid, data) ->
      match Kernel.lookup_stream k peer_oid with
      | Some peer ->
        ignore (Unixsock.deliver peer data);
        n + 1
      | None -> n)
    0 (recorded g)
