type writer = Buffer.t

let writer () = Buffer.create 256
let w_u8 b v =
  if v < 0 || v > 255 then invalid_arg "Serial.w_u8: out of range";
  Buffer.add_char b (Char.chr v)

let w_int64 b v = Buffer.add_int64_le b v
let w_int b v = w_int64 b (Int64.of_int v)
let w_bool b v = w_u8 b (if v then 1 else 0)

let w_string b s =
  w_int b (String.length s);
  Buffer.add_string b s

let w_option b f = function
  | None -> w_u8 b 0
  | Some v ->
    w_u8 b 1;
    f b v

let w_list b f xs =
  w_int b (List.length xs);
  List.iter (f b) xs

let contents b = Buffer.contents b

type reader = { data : string; mutable pos : int }

exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt s)) fmt
let reader data = { data; pos = 0 }

let truncated data ~pos ~len =
  corrupt "truncated record: need %d bytes at %d of %d" len pos (String.length data)

let need r n = if r.pos + n > String.length r.data then truncated r.data ~pos:r.pos ~len:n

let r_u8 r =
  need r 1;
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r_int64 r =
  need r 8;
  let v = String.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  v

let r_int r = Int64.to_int (r_int64 r)

let r_bool r =
  match r_u8 r with
  | 0 -> false
  | 1 -> true
  | v -> corrupt "bad bool tag %d" v

let r_string r =
  let len = r_int r in
  if len < 0 then corrupt "negative string length %d" len;
  need r len;
  let s = String.sub r.data r.pos len in
  r.pos <- r.pos + len;
  s

let r_option r f =
  match r_u8 r with
  | 0 -> None
  | 1 -> Some (f r)
  | v -> corrupt "bad option tag %d" v

let r_list r f =
  let n = r_int r in
  if n < 0 then corrupt "negative list length %d" n;
  List.init n (fun _ -> f r)

let at_end r = r.pos = String.length r.data

let expect_end r =
  if not (at_end r) then
    corrupt "trailing bytes: %d of %d consumed" r.pos (String.length r.data)

let seal ~magic payload =
  let b = Buffer.create (String.length magic + String.length payload + 16) in
  w_string b magic;
  w_int64 b (Fnv.fnv1a payload);
  Buffer.add_string b payload;
  Buffer.contents b

(* The length-prefixed magic is the one part of a sealed blob outside
   its checksum, so it is compared byte for byte: [r_int] would read
   its length prefix with bit 63 dropped. *)
let unseal ~magic blob =
  let head =
    let b = Buffer.create (String.length magic + 8) in
    w_string b magic;
    Buffer.contents b
  in
  let h = String.length head in
  if not (String.starts_with ~prefix:head blob) then Error "bad magic"
  else if String.length blob < h + 8 then Error "truncated checksum"
  else
    let payload = String.sub blob (h + 8) (String.length blob - h - 8) in
    if Int64.equal (Fnv.fnv1a payload) (String.get_int64_le blob h) then Ok payload
    else Error "checksum mismatch"

let unseal_with ~magic blob decode =
  Result.bind (unseal ~magic blob) (fun payload ->
      match
        let r = reader payload in
        let v = decode r in
        expect_end r;
        v
      with
      | v -> Ok v
      | exception Corrupt msg -> Error msg)
