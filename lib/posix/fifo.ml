open Aurora_simtime

type t = {
  capacity : int;
  chunks : string Queue.t;
  mutable head_off : int; (* consumed prefix of the front chunk *)
  mutable length : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Fifo.create: capacity <= 0";
  { capacity; chunks = Queue.create (); head_off = 0; length = 0 }

let capacity t = t.capacity
let length t = t.length
let space t = t.capacity - t.length
let is_empty t = t.length = 0

let push t data =
  let n = min (String.length data) (space t) in
  if n > 0 then begin
    Queue.push (if n = String.length data then data else String.sub data 0 n) t.chunks;
    t.length <- t.length + n
  end;
  n

let pop t ~max =
  if max < 0 then invalid_arg "Fifo.pop: negative max";
  let want = min max t.length in
  let out = Buffer.create want in
  while Buffer.length out < want do
    let chunk = Queue.peek t.chunks in
    let avail = String.length chunk - t.head_off in
    let take = min avail (want - Buffer.length out) in
    Buffer.add_substring out chunk t.head_off take;
    if take = avail then begin
      ignore (Queue.pop t.chunks);
      t.head_off <- 0
    end
    else t.head_off <- t.head_off + take
  done;
  t.length <- t.length - want;
  Buffer.contents out

let peek_all t =
  let out = Buffer.create t.length in
  let first = ref true in
  Queue.iter
    (fun chunk ->
      if !first then begin
        Buffer.add_substring out chunk t.head_off (String.length chunk - t.head_off);
        first := false
      end
      else Buffer.add_string out chunk)
    t.chunks;
  Buffer.contents out

let serialize t w =
  Serial.w_int w t.capacity;
  Serial.w_string w (peek_all t)

let deserialize r =
  let capacity = Serial.r_int r in
  let data = Serial.r_string r in
  let t = create ~capacity in
  if push t data <> String.length data then
    raise (Serial.Corrupt "Fifo.deserialize: contents exceed capacity");
  t
