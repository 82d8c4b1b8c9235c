(* A strict RFC 8259 parser for the tests. It rejects what a conforming
   parser must reject — raw control characters or invalid UTF-8 in
   strings, unknown escapes, unpaired surrogates, leading zeros, bare
   NaN/Infinity, trailing commas or garbage — so a text it accepts is
   valid JSON. Numbers without a fraction or exponent that fit an int
   come back as [Int], every other number as [Float]. *)

open Aurora_simtime

exception Error of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c = if peek () = Some c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal"
  in
  let hex4 () =
    if !pos + 4 > n then fail "short \\u escape";
    let v = ref 0 in
    for k = 0 to 3 do
      let d =
        match s.[!pos + k] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad hex digit"
      in
      v := (!v * 16) + d
    done;
    pos := !pos + 4;
    !v
  in
  let escape b =
    let simple c =
      Buffer.add_char b c;
      incr pos
    in
    match peek () with
    | Some (('"' | '\\' | '/') as c) -> simple c
    | Some 'b' -> simple '\b'
    | Some 'f' -> simple '\012'
    | Some 'n' -> simple '\n'
    | Some 'r' -> simple '\r'
    | Some 't' -> simple '\t'
    | Some 'u' ->
      incr pos;
      let u = hex4 () in
      let u =
        if u >= 0xDC00 && u <= 0xDFFF then fail "unpaired low surrogate"
        else if u >= 0xD800 && u <= 0xDBFF then begin
          if not (!pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u') then
            fail "unpaired high surrogate";
          pos := !pos + 2;
          let lo = hex4 () in
          if lo < 0xDC00 || lo > 0xDFFF then fail "unpaired high surrogate";
          0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
        end
        else u
      in
      Buffer.add_utf_8_uchar b (Uchar.of_int u)
    | _ -> fail "bad escape"
  in
  let string_ () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> incr pos
      | Some '\\' ->
        incr pos;
        escape b;
        go ()
      | Some c when c < ' ' -> fail "raw control character in a string"
      | Some _ ->
        let d = String.get_utf_8_uchar s !pos in
        if not (Uchar.utf_decode_is_valid d) then fail "invalid UTF-8";
        let len = Uchar.utf_decode_length d in
        Buffer.add_substring b s !pos len;
        pos := !pos + len;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let digits () =
    let start = !pos in
    while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
      incr pos
    done;
    if !pos = start then fail "expected a digit"
  in
  let number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    (match peek () with
     | Some '0' -> incr pos
     | Some '1' .. '9' -> digits ()
     | _ -> fail "expected a digit");
    let integral = ref true in
    if peek () = Some '.' then begin
      integral := false;
      incr pos;
      digits ()
    end;
    (match peek () with
     | Some ('e' | 'E') ->
       integral := false;
       incr pos;
       (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
       digits ()
     | _ -> ());
    let lit = String.sub s start (!pos - start) in
    match if !integral then int_of_string_opt lit else None with
    | Some i -> Json.Int i
    | None -> Json.Float (float_of_string lit)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Json.Obj []
      end
      else
        let rec members acc =
          skip_ws ();
          let k = string_ () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            members ((k, v) :: acc)
          | Some '}' ->
            incr pos;
            Json.Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        Json.List []
      end
      else
        let rec elements acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            elements (v :: acc)
          | Some ']' ->
            incr pos;
            Json.List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elements []
    | Some '"' -> Json.String (string_ ())
    | Some 't' -> literal "true" (Json.Bool true)
    | Some 'f' -> literal "false" (Json.Bool false)
    | Some 'n' -> literal "null" Json.Null
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail "expected a value"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing characters";
  v

(* [parse], failing the current test with the position and reason. *)
let parse_exn ~what s =
  try parse s
  with Error (pos, msg) ->
    Alcotest.failf "%s is not valid JSON: %s at byte %d of %d" what msg pos
      (String.length s)

let member k = function
  | Json.Obj kvs -> (
    match List.assoc_opt k kvs with
    | Some v -> v
    | None -> Alcotest.failf "JSON object has no %S" k)
  | _ -> Alcotest.failf "JSON value is not an object (looking up %S)" k
