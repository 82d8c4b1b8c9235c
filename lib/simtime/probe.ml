(* Dynamic tracepoints with online aggregation. See probe.mli.

   The registry is deliberately closure-free: predicates stay as ASTs
   and are interpreted per event, aggregation state lives in plain
   mutable cells. Interpretation only runs for subscribed points, so
   the cost is borne exactly by the queries asked. *)

type point = Dev_io | Store_commit | Ckpt_phase | Repl_msg | Alloc_defer

let points = [ Dev_io; Store_commit; Ckpt_phase; Repl_msg; Alloc_defer ]
let npoints = 5

let index = function
  | Dev_io -> 0
  | Store_commit -> 1
  | Ckpt_phase -> 2
  | Repl_msg -> 3
  | Alloc_defer -> 4

let point_name = function
  | Dev_io -> "dev.io"
  | Store_commit -> "store.commit"
  | Ckpt_phase -> "ckpt.phase"
  | Repl_msg -> "repl.msg"
  | Alloc_defer -> "alloc.defer"

let point_of_name = function
  | "dev.io" -> Some Dev_io
  | "store.commit" -> Some Store_commit
  | "ckpt.phase" -> Some Ckpt_phase
  | "repl.msg" -> Some Repl_msg
  | "alloc.defer" -> Some Alloc_defer
  | _ -> None

(* --- query DSL ------------------------------------------------------- *)

type field = Fdev | Fop | Fcls | Fgen | Fpgid | Fus | Fblocks
type cmp = Eq | Ne | Lt | Le | Gt | Ge
type value = Num of float | Str of string

type pred =
  | Cmp of field * cmp * value
  | And of pred * pred
  | Or of pred * pred

type agg =
  | Count
  | Sum of field
  | Min of field
  | Max of field
  | Avg of field
  | Quantize of field

type spec = {
  sp_point : point;
  sp_pred : pred option;
  sp_agg : agg;
  sp_by : field option;
}

let field_name = function
  | Fdev -> "dev"
  | Fop -> "op"
  | Fcls -> "cls"
  | Fgen -> "gen"
  | Fpgid -> "pgid"
  | Fus -> "us"
  | Fblocks -> "blocks"

let field_of_name = function
  | "dev" -> Some Fdev
  | "op" -> Some Fop
  | "cls" -> Some Fcls
  | "gen" -> Some Fgen
  | "pgid" -> Some Fpgid
  | "us" -> Some Fus
  | "blocks" -> Some Fblocks
  | _ -> None

let string_field = function Fdev | Fop | Fcls -> true | _ -> false

(* --- tokenizer ------------------------------------------------------- *)

type token =
  | Tident of string   (* bare identifiers, including dotted point names *)
  | Tnum of float
  | Tstr of string     (* quoted *)
  | Top of string      (* = != < <= > >= && || ( ) *)

let tokenize s =
  let n = String.length s in
  let toks = ref [] in
  let err pos msg = Error (Printf.sprintf "%s at offset %d" msg pos) in
  let is_ident_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '.' || c = '_' || c = '-'
  in
  let is_num_start c = (c >= '0' && c <= '9') in
  let rec go i =
    if i >= n then Ok (List.rev !toks)
    else
      let c = s.[i] in
      if c = ' ' || c = '\t' || c = '\n' then go (i + 1)
      else if c = '(' || c = ')' then begin
        toks := Top (String.make 1 c) :: !toks;
        go (i + 1)
      end
      else if c = '&' then
        if i + 1 < n && s.[i + 1] = '&' then begin
          toks := Top "&&" :: !toks;
          go (i + 2)
        end
        else err i "expected '&&'"
      else if c = '|' then
        if i + 1 < n && s.[i + 1] = '|' then begin
          toks := Top "||" :: !toks;
          go (i + 2)
        end
        else err i "expected '||'"
      else if c = '!' then
        if i + 1 < n && s.[i + 1] = '=' then begin
          toks := Top "!=" :: !toks;
          go (i + 2)
        end
        else err i "expected '!='"
      else if c = '=' then
        if i + 1 < n && s.[i + 1] = '=' then begin
          toks := Top "=" :: !toks;
          go (i + 2)
        end
        else begin
          toks := Top "=" :: !toks;
          go (i + 1)
        end
      else if c = '<' || c = '>' then
        if i + 1 < n && s.[i + 1] = '=' then begin
          toks := Top (String.make 1 c ^ "=") :: !toks;
          go (i + 2)
        end
        else begin
          toks := Top (String.make 1 c) :: !toks;
          go (i + 1)
        end
      else if c = '"' then begin
        let buf = Buffer.create 8 in
        let rec scan j =
          if j >= n then err i "unterminated string"
          else if s.[j] = '"' then begin
            toks := Tstr (Buffer.contents buf) :: !toks;
            go (j + 1)
          end
          else if s.[j] = '\\' && j + 1 < n then begin
            Buffer.add_char buf s.[j + 1];
            scan (j + 2)
          end
          else begin
            Buffer.add_char buf s.[j];
            scan (j + 1)
          end
        in
        scan (i + 1)
      end
      else if is_num_start c || (c = '-' && i + 1 < n && is_num_start s.[i + 1])
      then begin
        let j = ref (if c = '-' then i + 1 else i) in
        while
          !j < n
          && (is_num_start s.[!j] || s.[!j] = '.' || s.[!j] = 'e'
             || s.[!j] = 'E'
             || ((s.[!j] = '+' || s.[!j] = '-')
                && !j > i
                && (s.[!j - 1] = 'e' || s.[!j - 1] = 'E')))
        do
          incr j
        done;
        let lit = String.sub s i (!j - i) in
        match float_of_string_opt lit with
        | Some f ->
          toks := Tnum f :: !toks;
          go !j
        | None -> err i (Printf.sprintf "bad number %S" lit)
      end
      else if is_ident_char c then begin
        let j = ref i in
        while !j < n && is_ident_char s.[!j] do
          incr j
        done;
        toks := Tident (String.sub s i (!j - i)) :: !toks;
        go !j
      end
      else err i (Printf.sprintf "unexpected character %C" c)
  in
  go 0

(* --- parser ---------------------------------------------------------- *)

exception Parse_error of string

let parse_field name =
  match field_of_name name with
  | Some f -> f
  | None -> raise (Parse_error (Printf.sprintf "unknown field %S" name))

let cmp_of_op = function
  | "=" -> Eq
  | "!=" -> Ne
  | "<" -> Lt
  | "<=" -> Le
  | ">" -> Gt
  | ">=" -> Ge
  | op -> raise (Parse_error (Printf.sprintf "expected comparison, got %S" op))

(* Recursive-descent over the token list; && binds tighter than ||. *)
let parse_pred toks =
  let rec or_exp toks =
    let lhs, toks = and_exp toks in
    match toks with
    | Top "||" :: rest ->
      let rhs, toks = or_exp rest in
      (Or (lhs, rhs), toks)
    | _ -> (lhs, toks)
  and and_exp toks =
    let lhs, toks = atom toks in
    match toks with
    | Top "&&" :: rest ->
      let rhs, toks = and_exp rest in
      (And (lhs, rhs), toks)
    | _ -> (lhs, toks)
  and atom = function
    | Top "(" :: rest -> (
      let p, toks = or_exp rest in
      match toks with
      | Top ")" :: rest -> (p, rest)
      | _ -> raise (Parse_error "expected ')'"))
    | Tident f :: Top op :: rest -> (
      let field = parse_field f in
      let cmp = cmp_of_op op in
      match rest with
      | Tnum v :: rest ->
        if string_field field then
          raise
            (Parse_error
               (Printf.sprintf "field %s is a string, got a number"
                  (field_name field)))
        else (Cmp (field, cmp, Num v), rest)
      | Tstr v :: rest | Tident v :: rest ->
        if not (string_field field) then (
          (* numeric field, bare token: allow "nan"/"inf"-style idents *)
          match float_of_string_opt v with
          | Some f -> (Cmp (field, cmp, Num f), rest)
          | None ->
            raise
              (Parse_error
                 (Printf.sprintf "field %s is numeric, got a string"
                    (field_name field))))
        else if not (cmp = Eq || cmp = Ne) then
          raise (Parse_error "string fields only support = and !=")
        else (Cmp (field, cmp, Str v), rest)
      | _ -> raise (Parse_error "expected a value after comparison"))
    | _ -> raise (Parse_error "expected a comparison or '('")
  in
  or_exp toks

let numeric_arg name = function
  | [ Tident f ] ->
    let field = parse_field f in
    if string_field field then
      raise
        (Parse_error (Printf.sprintf "%s() needs a numeric field" name))
    else field
  | _ -> raise (Parse_error (Printf.sprintf "expected %s(FIELD)" name))

let parse_agg toks =
  (* Consumes NAME [( FIELD )]; returns the agg and the remainder. *)
  match toks with
  | Tident "count" :: rest -> (Count, rest)
  | Tident name :: Top "(" :: Tident f :: Top ")" :: rest ->
    let field = numeric_arg name [ Tident f ] in
    let agg =
      match name with
      | "sum" -> Sum field
      | "min" -> Min field
      | "max" -> Max field
      | "avg" -> Avg field
      | "quantize" -> Quantize field
      | _ -> raise (Parse_error (Printf.sprintf "unknown aggregation %S" name))
    in
    (agg, rest)
  | _ -> raise (Parse_error "expected an aggregation (count, sum(f), ...)")

let parse s =
  match tokenize s with
  | Error e -> Error e
  | Ok toks -> (
    try
      match toks with
      | Tident pname :: rest -> (
        match point_of_name pname with
        | None ->
          Error
            (Printf.sprintf "unknown probe %S; probes: %s" pname
               (String.concat " " (List.map point_name points)))
        | Some point ->
          let pred, rest =
            match rest with
            | Tident "where" :: rest ->
              let p, rest = parse_pred rest in
              (Some p, rest)
            | _ -> (None, rest)
          in
          let agg, rest =
            match rest with
            | Tident "agg" :: rest -> parse_agg rest
            | _ -> (Count, rest)
          in
          let by, rest =
            match rest with
            | Tident "by" :: Tident f :: rest -> (Some (parse_field f), rest)
            | Tident "by" :: _ -> raise (Parse_error "expected a field after 'by'")
            | _ -> (None, rest)
          in
          if rest <> [] then Error "trailing tokens after query"
          else Ok { sp_point = point; sp_pred = pred; sp_agg = agg; sp_by = by })
      | _ -> Error "expected a probe name"
    with Parse_error msg -> Error msg)

(* --- printer --------------------------------------------------------- *)

let print_num v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_value = function
  | Num v -> print_num v
  | Str s ->
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' || c = '\\' then Buffer.add_char buf '\\';
        Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf

let cmp_name = function
  | Eq -> "="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

(* Parenthesise || under && so the printed form re-parses to the same
   tree; && chains right-associate in the parser, so print them with
   explicit parens on a left-nested And. *)
let rec print_pred = function
  | Cmp (f, c, v) ->
    Printf.sprintf "%s %s %s" (field_name f) (cmp_name c) (print_value v)
  | And (a, b) ->
    Printf.sprintf "%s && %s" (print_and_operand a) (print_pred_tight b)
  | Or (a, b) -> Printf.sprintf "%s || %s" (print_or_operand a) (print_pred b)

and print_and_operand = function
  | (Or _ | And _) as p -> "(" ^ print_pred p ^ ")"
  | p -> print_pred p

and print_pred_tight = function
  | Or _ as p -> "(" ^ print_pred p ^ ")"
  | p -> print_pred p

and print_or_operand = function
  | Or _ as p -> "(" ^ print_pred p ^ ")"
  | p -> print_pred p

let print_agg = function
  | Count -> "count"
  | Sum f -> Printf.sprintf "sum(%s)" (field_name f)
  | Min f -> Printf.sprintf "min(%s)" (field_name f)
  | Max f -> Printf.sprintf "max(%s)" (field_name f)
  | Avg f -> Printf.sprintf "avg(%s)" (field_name f)
  | Quantize f -> Printf.sprintf "quantize(%s)" (field_name f)

let print spec =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (point_name spec.sp_point);
  (match spec.sp_pred with
  | Some p ->
    Buffer.add_string buf " where ";
    Buffer.add_string buf (print_pred p)
  | None -> ());
  Buffer.add_string buf " agg ";
  Buffer.add_string buf (print_agg spec.sp_agg);
  (match spec.sp_by with
  | Some f ->
    Buffer.add_string buf " by ";
    Buffer.add_string buf (field_name f)
  | None -> ());
  Buffer.contents buf

(* --- evaluation ------------------------------------------------------ *)

let num_of ~gen ~pgid ~us ~blocks = function
  | Fgen -> float_of_int gen
  | Fpgid -> float_of_int pgid
  | Fus -> us
  | Fblocks -> float_of_int blocks
  | Fdev | Fop | Fcls -> nan

let str_of ~dev ~op ~cls = function
  | Fdev -> dev
  | Fop -> op
  | Fcls -> cls
  | _ -> ""

let key_of ~dev ~op ~cls ~gen ~pgid ~us ~blocks = function
  | Fdev -> dev
  | Fop -> op
  | Fcls -> cls
  | Fgen -> string_of_int gen
  | Fpgid -> string_of_int pgid
  | Fus -> print_num us
  | Fblocks -> string_of_int blocks

let rec eval_pred p ~dev ~op ~cls ~gen ~pgid ~us ~blocks =
  match p with
  | And (a, b) ->
    eval_pred a ~dev ~op ~cls ~gen ~pgid ~us ~blocks
    && eval_pred b ~dev ~op ~cls ~gen ~pgid ~us ~blocks
  | Or (a, b) ->
    eval_pred a ~dev ~op ~cls ~gen ~pgid ~us ~blocks
    || eval_pred b ~dev ~op ~cls ~gen ~pgid ~us ~blocks
  | Cmp (f, c, Str s) -> (
    let v = str_of ~dev ~op ~cls f in
    match c with
    | Eq -> String.equal v s
    | Ne -> not (String.equal v s)
    | _ -> false)
  | Cmp (f, c, Num x) -> (
    let v = num_of ~gen ~pgid ~us ~blocks f in
    match c with
    | Eq -> v = x
    | Ne -> v <> x
    | Lt -> v < x
    | Le -> v <= x
    | Gt -> v > x
    | Ge -> v >= x)

let nquant = 64

let quantize_lower i = if i <= 0 then 0. else Float.pow 2. (float_of_int (i - 1))

let qbucket v =
  if not (v >= 1.0) (* catches nan and sub-1 values *) then 0
  else
    let i = 1 + int_of_float (Float.log2 v) in
    if i < 1 then 1 else if i >= nquant then nquant - 1 else i

(* --- registry -------------------------------------------------------- *)

type cell = {
  mutable c_n : int;
  mutable c_sum : float;
  mutable c_min : float;
  mutable c_max : float;
  c_buckets : int array; (* [||] unless quantize *)
}

type sub = {
  sub_id : int;
  spec : spec;
  cells : (string, cell) Hashtbl.t;
  mutable s_fired : int;
  mutable s_matched : int;
}

type t = {
  enabled_arr : bool array;
  mutable subs : sub list; (* newest first *)
  mutable next_id : int;
}

let create () =
  { enabled_arr = Array.make npoints false; subs = []; next_id = 1 }

let enabled t p = Array.unsafe_get t.enabled_arr (index p)

let recompute_enabled t =
  Array.fill t.enabled_arr 0 npoints false;
  List.iter
    (fun s -> t.enabled_arr.(index s.spec.sp_point) <- true)
    t.subs

let subscribe t spec =
  let id = t.next_id in
  t.next_id <- id + 1;
  let sub =
    {
      sub_id = id;
      spec;
      cells = Hashtbl.create 16;
      s_fired = 0;
      s_matched = 0;
    }
  in
  t.subs <- sub :: t.subs;
  recompute_enabled t;
  id

let unsubscribe t id =
  t.subs <- List.filter (fun s -> s.sub_id <> id) t.subs;
  recompute_enabled t

let subscriptions t =
  List.rev_map (fun s -> (s.sub_id, s.spec)) t.subs

let cell_for sub key want_buckets =
  match Hashtbl.find_opt sub.cells key with
  | Some c -> c
  | None ->
    let c =
      {
        c_n = 0;
        c_sum = 0.;
        c_min = infinity;
        c_max = neg_infinity;
        c_buckets = (if want_buckets then Array.make nquant 0 else [||]);
      }
    in
    Hashtbl.add sub.cells key c;
    c

let update_cell c agg ~gen ~pgid ~us ~blocks =
  c.c_n <- c.c_n + 1;
  match agg with
  | Count -> ()
  | Sum f | Min f | Max f | Avg f ->
    let v = num_of ~gen ~pgid ~us ~blocks f in
    c.c_sum <- c.c_sum +. v;
    if v < c.c_min then c.c_min <- v;
    if v > c.c_max then c.c_max <- v
  | Quantize f ->
    let v = num_of ~gen ~pgid ~us ~blocks f in
    c.c_sum <- c.c_sum +. v;
    if v < c.c_min then c.c_min <- v;
    if v > c.c_max then c.c_max <- v;
    let b = qbucket v in
    c.c_buckets.(b) <- c.c_buckets.(b) + 1

let fire ?(cls = "") t point ~dev ~op ~gen ~pgid ~us ~blocks =
  List.iter
    (fun sub ->
      if sub.spec.sp_point = point then begin
        sub.s_fired <- sub.s_fired + 1;
        let matches =
          match sub.spec.sp_pred with
          | None -> true
          | Some p -> eval_pred p ~dev ~op ~cls ~gen ~pgid ~us ~blocks
        in
        if matches then begin
          sub.s_matched <- sub.s_matched + 1;
          let key =
            match sub.spec.sp_by with
            | None -> ""
            | Some f -> key_of ~dev ~op ~cls ~gen ~pgid ~us ~blocks f
          in
          let want_buckets =
            match sub.spec.sp_agg with Quantize _ -> true | _ -> false
          in
          let cell = cell_for sub key want_buckets in
          update_cell cell sub.spec.sp_agg ~gen ~pgid ~us ~blocks
        end
      end)
    t.subs

let reset t =
  List.iter
    (fun s ->
      Hashtbl.reset s.cells;
      s.s_fired <- 0;
      s.s_matched <- 0)
    t.subs

(* --- reports --------------------------------------------------------- *)

type row = {
  r_key : string;
  r_n : int;
  r_sum : float;
  r_min : float;
  r_max : float;
  r_buckets : int array;
}

type report = {
  rp_id : int;
  rp_spec : spec;
  rp_fired : int;
  rp_matched : int;
  rp_rows : row list;
}

let row_of_cell key c =
  {
    r_key = key;
    r_n = c.c_n;
    r_sum = c.c_sum;
    r_min = (if c.c_n = 0 || c.c_min = infinity then nan else c.c_min);
    r_max = (if c.c_n = 0 || c.c_max = neg_infinity then nan else c.c_max);
    r_buckets = Array.copy c.c_buckets;
  }

let report_of_sub s =
  let rows =
    Hashtbl.fold (fun k c acc -> row_of_cell k c :: acc) s.cells []
    |> List.sort (fun a b -> compare a.r_key b.r_key)
  in
  {
    rp_id = s.sub_id;
    rp_spec = s.spec;
    rp_fired = s.s_fired;
    rp_matched = s.s_matched;
    rp_rows = rows;
  }

let report t id =
  List.find_opt (fun s -> s.sub_id = id) t.subs
  |> Option.map report_of_sub

let reports t = List.rev_map report_of_sub t.subs

(* --- rendering ------------------------------------------------------- *)

let agg_value agg r =
  match agg with
  | Count -> float_of_int r.r_n
  | Sum _ -> r.r_sum
  | Min _ -> r.r_min
  | Max _ -> r.r_max
  | Avg _ | Quantize _ ->
    if r.r_n = 0 then nan else r.r_sum /. float_of_int r.r_n

let agg_label = function
  | Count -> "count"
  | Sum _ -> "sum"
  | Min _ -> "min"
  | Max _ -> "max"
  | Avg _ -> "avg"
  | Quantize _ -> "avg"

let render_quantize buf r =
  (* The classic DTrace bar chart: one line per non-empty power-of-two
     bucket, padded to the occupied range. *)
  let lo = ref nquant and hi = ref (-1) in
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        if i < !lo then lo := i;
        if i > !hi then hi := i
      end)
    r.r_buckets;
  if !hi >= 0 then begin
    let lo = max 0 (!lo - 1) and hi = min (nquant - 1) (!hi + 1) in
    let total = Array.fold_left ( + ) 0 r.r_buckets in
    Buffer.add_string buf
      (Printf.sprintf "  %12s %-40s %s\n" "value" "distribution" "count");
    for i = lo to hi do
      let c = r.r_buckets.(i) in
      let bar =
        if total = 0 then 0 else c * 40 / total
      in
      Buffer.add_string buf
        (Printf.sprintf "  %12.0f |%-40s %d\n" (quantize_lower i)
           (String.make bar '@') c)
    done
  end

let render rp =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (print rp.rp_spec);
  Buffer.add_string buf
    (Printf.sprintf "\n  fired %d, matched %d\n" rp.rp_fired rp.rp_matched);
  let quantize = match rp.rp_spec.sp_agg with Quantize _ -> true | _ -> false in
  List.iter
    (fun r ->
      let label = if r.r_key = "" then "(all)" else r.r_key in
      if quantize then begin
        Buffer.add_string buf (Printf.sprintf "  %s: n=%d\n" label r.r_n);
        render_quantize buf r
      end
      else
        Buffer.add_string buf
          (Printf.sprintf "  %-16s %s=%g n=%d\n" label
             (agg_label rp.rp_spec.sp_agg)
             (agg_value rp.rp_spec.sp_agg r)
             r.r_n))
    rp.rp_rows;
  if rp.rp_rows = [] then Buffer.add_string buf "  (no matching events)\n";
  Buffer.contents buf

let report_json rp =
  let bucket i c : Json.t list =
    if c > 0 then [ Obj [ ("ge", Float (quantize_lower i)); ("count", Int c) ] ] else []
  in
  let row r =
    let fields : (string * Json.t) list =
      [ ("key", String r.r_key); ("n", Int r.r_n); ("sum", Float r.r_sum);
        ("min", Float r.r_min); ("max", Float r.r_max) ]
    in
    if Array.length r.r_buckets = 0 then Json.Obj fields
    else
      let buckets = List.concat (List.mapi bucket (Array.to_list r.r_buckets)) in
      Json.Obj (fields @ [ ("buckets", List buckets) ])
  in
  Json.to_string
    (Obj
       [ ("id", Int rp.rp_id); ("query", String (print rp.rp_spec));
         ("point", String (point_name rp.rp_spec.sp_point)); ("fired", Int rp.rp_fired);
         ("matched", Int rp.rp_matched); ("rows", List (List.map row rp.rp_rows)) ])
