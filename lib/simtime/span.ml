type span = {
  id : int;
  name : string;
  track : string;
  parent : int;
  start_at : Duration.t;
  mutable end_at : Duration.t;
  mutable closed : bool;
  mutable attrs : (string * string) list;
}

(* Retained spans; once full, new spans are timed but not kept. *)
let capacity = 262_144

type t = {
  clock : Clock.t;
  mutable rev : span list;           (* retained spans, newest first *)
  mutable len : int;
  mutable cache : span list option;  (* memoized [List.rev rev] *)
  mutable stack : span list;         (* open spans, innermost first *)
  mutable next_id : int;
  mutable dropped : int;
  mutable orphans : int;
}

let create clock =
  { clock; rev = []; len = 0; cache = None; stack = [];
    next_id = 0; dropped = 0; orphans = 0 }

let duration s = Duration.sub s.end_at s.start_at

let retain t s =
  if t.len >= capacity then t.dropped <- t.dropped + 1
  else begin
    t.rev <- s :: t.rev;
    t.len <- t.len + 1;
    t.cache <- None
  end

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let parent_id t = match t.stack with [] -> -1 | s :: _ -> s.id

let start t ?(track = "cpu") ?(attrs = []) name =
  let now = Clock.now t.clock in
  let s =
    { id = fresh_id t; name; track; parent = parent_id t; start_at = now;
      end_at = now; closed = false; attrs }
  in
  retain t s;
  t.stack <- s :: t.stack;
  s

let close s now =
  s.end_at <- now;
  s.closed <- true

let finish t ?(attrs = []) s =
  let now = Clock.now t.clock in
  if s.closed then begin
    t.orphans <- t.orphans + 1;
    duration s
  end
  else begin
    s.attrs <- s.attrs @ attrs;
    if List.memq s t.stack then begin
      (* Close abandoned descendants on the way down. *)
      let rec pop = function
        | [] -> []
        | x :: rest ->
          if x == s then begin
            close x now;
            rest
          end
          else begin
            close x now;
            t.orphans <- t.orphans + 1;
            pop rest
          end
      in
      t.stack <- pop t.stack
    end
    else begin
      close s now;
      t.orphans <- t.orphans + 1
    end;
    duration s
  end

let with_span t ?track ?attrs name f =
  let s = start t ?track ?attrs name in
  match f () with
  | v ->
    ignore (finish t s);
    v
  | exception e ->
    ignore (finish t s);
    raise e

let record t ?(track = "cpu") ?(attrs = []) ~name ~start_at ~end_at () =
  let s =
    { id = fresh_id t; name; track; parent = parent_id t; start_at;
      end_at; closed = true; attrs }
  in
  retain t s

let spans t =
  match t.cache with
  | Some l -> l
  | None ->
    let l = List.rev t.rev in
    t.cache <- Some l;
    l

let find t ~name = List.find_opt (fun s -> String.equal s.name name) (spans t)
let find_all t ~name = List.filter (fun s -> String.equal s.name name) (spans t)
let roots t = List.filter (fun s -> s.parent = -1) (spans t)
let children t p = List.filter (fun s -> s.parent = p.id) (spans t)

let dropped t = t.dropped
let orphan_finishes t = t.orphans
let open_count t = List.length t.stack

let clear t =
  t.rev <- [];
  t.len <- 0;
  t.cache <- None;
  t.stack <- [];
  t.dropped <- 0;
  t.orphans <- 0

(* --- Chrome trace_event export --------------------------------------- *)

let to_chrome_json t =
  let now = Clock.now t.clock in
  let tids = Hashtbl.create 8 in
  let tid_order = ref [] in
  let tid_of track =
    match Hashtbl.find_opt tids track with
    | Some tid -> tid
    | None ->
      let tid = Hashtbl.length tids + 1 in
      Hashtbl.replace tids track tid;
      tid_order := (track, tid) :: !tid_order;
      tid
  in
  (* Assign tids in first-use order before emitting metadata. *)
  List.iter (fun s -> ignore (tid_of s.track)) (spans t);
  let us d = Json.fixed 3 (Duration.to_us d) in
  let thread_name (track, tid) =
    Json.Obj
      [ ("name", String "thread_name"); ("ph", String "M"); ("pid", Int 1);
        ("tid", Int tid); ("args", Obj [ ("name", String track) ]) ]
  in
  let event s =
    let end_at = if s.closed then s.end_at else now in
    let args = List.map (fun (k, v) -> (k, Json.String v)) s.attrs in
    Json.Obj
      [ ("name", String s.name); ("cat", String "aurora"); ("ph", String "X");
        ("ts", us s.start_at); ("dur", us (Duration.sub end_at s.start_at));
        ("pid", Int 1); ("tid", Int (tid_of s.track));
        ("args", Obj (("id", Int s.id) :: ("parent", Int s.parent) :: args)) ]
  in
  let metadata = List.map thread_name (List.rev !tid_order) in
  Json.to_string
    (Obj
       [ ("displayTimeUnit", String "ms");
         ("traceEvents", List (metadata @ List.map event (spans t))) ])
