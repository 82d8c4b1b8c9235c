type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let add_string b s =
  Buffer.add_char b '"';
  let n = String.length s in
  let rec go i =
    if i < n then
      match String.unsafe_get s i with
      | '"' -> Buffer.add_string b "\\\""; go (i + 1)
      | '\\' -> Buffer.add_string b "\\\\"; go (i + 1)
      | c when c < ' ' -> Printf.bprintf b "\\u%04x" (Char.code c); go (i + 1)
      | c when c < '\x80' -> Buffer.add_char b c; go (i + 1)
      | _ ->
        let d = String.get_utf_8_uchar s i in
        let len = Uchar.utf_decode_length d in
        if Uchar.utf_decode_is_valid d then Buffer.add_substring b s i len
        else Buffer.add_utf_8_uchar b Uchar.rep;
        go (i + len)
  in
  go 0;
  Buffer.add_char b '"'

let add_float b v =
  if Float.is_finite v then begin
    let short = Printf.sprintf "%.15g" v in
    Buffer.add_string b
      (if float_of_string short = v then short else Printf.sprintf "%.17g" v)
  end
  else Buffer.add_string b "null"

let add_seq b ~opening ~closing add_item items =
  Buffer.add_char b opening;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b ", ";
      add_item x)
    items;
  Buffer.add_char b closing

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int v -> Buffer.add_string b (string_of_int v)
  | Float v -> add_float b v
  | String s -> add_string b s
  | List l -> add_seq b ~opening:'[' ~closing:']' (add b) l
  | Obj kvs ->
    add_seq b ~opening:'{' ~closing:'}'
      (fun (k, v) ->
        add_string b k;
        Buffer.add_string b ": ";
        add b v)
      kvs

let to_string v =
  let b = Buffer.create 1024 in
  add b v;
  Buffer.contents b

let fixed digits v = Float (float_of_string (Printf.sprintf "%.*f" digits v))
