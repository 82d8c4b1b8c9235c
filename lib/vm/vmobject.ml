open Aurora_simtime

type kind = Anonymous | Vnode of int

type pslot =
  | Resident of Frame.t
  | Paged_out of { content : Content.t; read_cost : Duration.t }

type t = {
  oid : int;
  kind : kind;
  pool : Frame.pool;
  pages : (int, pslot) Hashtbl.t;
  mutable shadow : t option;
  mutable refcount : int;
  dirty : (int, unit) Hashtbl.t;
  armed : (int, unit) Hashtbl.t;
  heat : (int, int) Hashtbl.t;
  mutable cow_breaks : int;
}

let next_oid = ref 0

let create ~pool kind =
  incr next_oid;
  { oid = !next_oid; kind; pool; pages = Hashtbl.create 64; shadow = None;
    refcount = 1; dirty = Hashtbl.create 64; armed = Hashtbl.create 64;
    heat = Hashtbl.create 64; cow_breaks = 0 }

let oid t = t.oid
let kind t = t.kind
let shadow_of t = t.shadow

let incref t =
  if t.refcount <= 0 then invalid_arg "Vmobject.incref: dead object";
  t.refcount <- t.refcount + 1

let release_slot t = function
  | Resident f -> Frame.decref t.pool f
  | Paged_out _ -> ()

let rec decref t =
  if t.refcount <= 0 then invalid_arg "Vmobject.decref: dead object";
  t.refcount <- t.refcount - 1;
  if t.refcount = 0 then begin
    Hashtbl.iter (fun _ slot -> release_slot t slot) t.pages;
    Hashtbl.reset t.pages;
    match t.shadow with
    | None -> ()
    | Some backing ->
      t.shadow <- None;
      decref backing
  end

let make_shadow t =
  incref t;
  let s = create ~pool:t.pool t.kind in
  s.shadow <- Some t;
  s

type resolution =
  | Found of { owner : t; slot : pslot }
  | Absent

let rec resolve t pindex =
  match Hashtbl.find_opt t.pages pindex with
  | Some slot -> Found { owner = t; slot }
  | None -> (
    match t.shadow with
    | Some backing -> resolve backing pindex
    | None -> Absent)

let install t pindex frame =
  (match Hashtbl.find_opt t.pages pindex with
   | Some slot -> release_slot t slot
   | None -> ());
  Hashtbl.replace t.pages pindex (Resident frame)

let install_paged_out t pindex ~content ~read_cost =
  (match Hashtbl.find_opt t.pages pindex with
   | Some slot -> release_slot t slot
   | None -> ());
  Hashtbl.replace t.pages pindex (Paged_out { content; read_cost })

let page_in t pindex frame =
  match Hashtbl.find_opt t.pages pindex with
  | Some (Paged_out _) -> Hashtbl.replace t.pages pindex (Resident frame)
  | Some (Resident _) -> invalid_arg "Vmobject.page_in: page already resident"
  | None -> invalid_arg "Vmobject.page_in: no such page"

let page_out t pindex ~read_cost =
  match Hashtbl.find_opt t.pages pindex with
  | Some (Resident f) ->
    if f.Frame.refcount > 1 then invalid_arg "Vmobject.page_out: frame is shared";
    let content = f.Frame.content in
    Frame.decref t.pool f;
    Hashtbl.replace t.pages pindex (Paged_out { content; read_cost });
    content
  | Some (Paged_out _) -> invalid_arg "Vmobject.page_out: already paged out"
  | None -> invalid_arg "Vmobject.page_out: no such page"

(* --- checkpoint support ------------------------------------------- *)

type flush_item = { pindex : int; content : Content.t; frame : Frame.t option }

let capture t pindex =
  match Hashtbl.find_opt t.pages pindex with
  | Some (Resident f) ->
    Frame.incref f;
    Some { pindex; content = f.Frame.content; frame = Some f }
  | Some (Paged_out { content; _ }) -> Some { pindex; content; frame = None }
  | None -> None

let sorted_keys h =
  let keys = Hashtbl.fold (fun k () acc -> k :: acc) h [] in
  List.sort Int.compare keys

let arm_for_checkpoint t ~mode =
  let to_capture =
    match mode with
    | `Full ->
      let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.pages [] in
      List.sort Int.compare keys
    | `Dirty_only ->
      (* Dirty pages, plus pages never captured by any checkpoint
         (present but neither armed nor dirty can only mean "captured
         before and unmodified since", so those are skipped). A page is
         "never captured" exactly when it is dirty — pages are marked
         dirty at birth — so the dirty set is complete. *)
      sorted_keys t.dirty
  in
  let items =
    List.filter_map
      (fun pindex ->
        match capture t pindex with
        | Some item ->
          Hashtbl.replace t.armed pindex ();
          Some item
        | None ->
          (* dirty entry for a page that was since unmapped *)
          None)
      to_capture
  in
  Hashtbl.reset t.dirty;
  items

let release_flush_item ~pool item =
  match item.frame with
  | Some f -> Frame.decref pool f
  | None -> ()

let is_armed t pindex = Hashtbl.mem t.armed pindex
let cow_breaks t = t.cow_breaks
let reset_cow_breaks t = t.cow_breaks <- 0
let armed_count t = Hashtbl.length t.armed
let dirty_count t = Hashtbl.length t.dirty

let mark_dirty t pindex = Hashtbl.replace t.dirty pindex ()

let disarm_for_write t pindex =
  if not (Hashtbl.mem t.armed pindex) then
    invalid_arg "Vmobject.disarm_for_write: page not armed";
  match Hashtbl.find_opt t.pages pindex with
  | Some (Resident old_frame) ->
    (* Aurora's COW: a new page shared between all processes mapping
       this object; the old frame stays alive while the flusher holds
       its reference. *)
    let fresh = Frame.alloc t.pool old_frame.Frame.content in
    Frame.decref t.pool old_frame;
    Hashtbl.replace t.pages pindex (Resident fresh);
    Hashtbl.remove t.armed pindex;
    t.cow_breaks <- t.cow_breaks + 1;
    mark_dirty t pindex;
    fresh
  | Some (Paged_out _) | None ->
    invalid_arg "Vmobject.disarm_for_write: page not resident"

(* --- heat / clock ------------------------------------------------- *)

let touch t pindex =
  (match Hashtbl.find_opt t.pages pindex with
   | Some (Resident f) -> f.Frame.accessed <- true
   | Some (Paged_out _) | None -> ());
  let h = Option.value ~default:0 (Hashtbl.find_opt t.heat pindex) in
  Hashtbl.replace t.heat pindex (h + 1)

let heat t pindex = Option.value ~default:0 (Hashtbl.find_opt t.heat pindex)

let age_heat t =
  let halved = Hashtbl.fold (fun k v acc -> (k, v / 2) :: acc) t.heat [] in
  List.iter
    (fun (k, v) -> if v = 0 then Hashtbl.remove t.heat k else Hashtbl.replace t.heat k v)
    halved

(* Hottest first: heat descending, ties by page index ascending. *)
let hotter (ka, va) (kb, vb) = match Int.compare vb va with 0 -> Int.compare ka kb | c -> c

let hot_pages t ~limit =
  if limit < 0 then invalid_arg "Vmobject.hot_pages: negative limit";
  if limit >= Hashtbl.length t.heat then
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.heat [] |> List.sort hotter |> List.map fst
  else if limit = 0 then []
  else begin
    (* A binary min-heap of the [limit] hottest pages seen so far, the
       coldest at the root, so only [limit] entries are ever sorted. *)
    let keys = Array.make limit 0 and heats = Array.make limit 0 in
    let size = ref 0 in
    (* Page [ka] at heat [va] ranks after page [kb] at heat [vb]. *)
    let colder ka va kb vb = va < vb || (va = vb && ka > kb) in
    let set i k v =
      keys.(i) <- k;
      heats.(i) <- v
    in
    (* Both place page [k] at heat [v] into the hole at slot [i]. *)
    let rec sift_up i k v =
      let p = (i - 1) / 2 in
      if i > 0 && colder k v keys.(p) heats.(p) then begin
        set i keys.(p) heats.(p);
        sift_up p k v
      end
      else set i k v
    in
    let rec sift_down i k v =
      let l = (2 * i) + 1 in
      if l >= limit then set i k v
      else begin
        let c =
          if l + 1 < limit && colder keys.(l + 1) heats.(l + 1) keys.(l) heats.(l) then l + 1
          else l
        in
        if colder keys.(c) heats.(c) k v then begin
          set i keys.(c) heats.(c);
          sift_down c k v
        end
        else set i k v
      end
    in
    Hashtbl.iter
      (fun k v ->
        if !size < limit then begin
          sift_up !size k v;
          incr size
        end
        else if colder keys.(0) heats.(0) k v then sift_down 0 k v)
      t.heat;
    List.init limit (fun i -> (keys.(i), heats.(i))) |> List.sort hotter |> List.map fst
  end

(* --- iteration / stats -------------------------------------------- *)

let fold_pages t ~init ~f =
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.pages [] in
  let keys = List.sort Int.compare keys in
  List.fold_left (fun acc k -> f acc k (Hashtbl.find t.pages k)) init keys

let resident_count t =
  Hashtbl.fold (fun _ s acc -> match s with Resident _ -> acc + 1 | Paged_out _ -> acc)
    t.pages 0

let rec chain_depth t =
  match t.shadow with None -> 1 | Some backing -> 1 + chain_depth backing
