open Aurora_simtime
open Aurora_device

type kind = Anonymous | Vnode of int

type pslot =
  | Resident of Frame.t
  | Paged_out of { content : Content.t; read_cost : Duration.t }

(* A set of page indexes: a bitmap of 32 pages per word (a power of
   two, so a page's word and bit are a shift and a mask), with the
   number of members kept beside it. *)
module Pageset = struct
  type t = { words : int Blockvec.t; mutable count : int }

  let create () = { words = Blockvec.create 0; count = 0 }
  let bit i = 1 lsl (i land 31)
  let mem s i = Blockvec.get s.words (i asr 5) land bit i <> 0

  let add s i =
    let w = Blockvec.get s.words (i asr 5) in
    if w land bit i = 0 then begin
      Blockvec.set s.words (i asr 5) (w lor bit i);
      s.count <- s.count + 1
    end

  let remove s i =
    let w = Blockvec.get s.words (i asr 5) in
    if w land bit i <> 0 then begin
      Blockvec.set s.words (i asr 5) (w land lnot (bit i));
      s.count <- s.count - 1
    end

  let clear s =
    if s.count > 0 then begin
      Blockvec.clear s.words;
      s.count <- 0
    end

  (* Members in descending order; an empty word costs one read. *)
  let fold_desc s ~init ~f =
    let acc = ref init in
    for w = Blockvec.length s.words - 1 downto 0 do
      let word = Blockvec.get s.words w in
      if word <> 0 then
        for b = 31 downto 0 do
          if word land (1 lsl b) <> 0 then acc := f !acc ((w lsl 5) lor b)
        done
    done;
    !acc
end

(* Heat is kept in chunks of [heat_chunk] pages, each allocated on its
   first touch, so touching one page of a large region costs one small
   array, not one as large as the region. *)
let heat_shift = 6
let heat_chunk = 1 lsl heat_shift

type t = {
  oid : int;
  kind : kind;
  pool : Frame.pool;
  pages : pslot option Blockvec.t;
  mutable shadow : t option;
  mutable refcount : int;
  dirty : Pageset.t;
  armed : Pageset.t;
  heat : int array Blockvec.t; (* chunk [pindex / heat_chunk]; empty until touched *)
  mutable heated : int; (* pages whose heat is nonzero *)
  mutable cow_breaks : int;
}

let next_oid = ref 0

let create ~pool kind =
  incr next_oid;
  { oid = !next_oid; kind; pool; pages = Blockvec.create None; shadow = None;
    refcount = 1; dirty = Pageset.create (); armed = Pageset.create ();
    heat = Blockvec.create [||]; heated = 0; cow_breaks = 0 }

let oid t = t.oid
let kind t = t.kind
let shadow_of t = t.shadow

let fold_pages t ~init ~f =
  let acc = ref init in
  for pindex = 0 to Blockvec.length t.pages - 1 do
    match Blockvec.get t.pages pindex with
    | Some slot -> acc := f !acc pindex slot
    | None -> ()
  done;
  !acc

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
    fold_pages t ~init:() ~f:(fun () _ slot -> release_slot t slot);
    Blockvec.clear t.pages;
    Pageset.clear t.dirty;
    Pageset.clear t.armed;
    Blockvec.clear t.heat;
    t.heated <- 0;
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
  match Blockvec.get t.pages pindex with
  | Some slot -> Found { owner = t; slot }
  | None -> (
    match t.shadow with
    | Some backing -> resolve backing pindex
    | None -> Absent)

let replace t pindex slot =
  (match Blockvec.get t.pages pindex with
   | Some old -> release_slot t old
   | None -> ());
  Blockvec.set t.pages pindex (Some slot)

let install t pindex frame = replace t pindex (Resident frame)

let install_paged_out t pindex ~content ~read_cost =
  replace t pindex (Paged_out { content; read_cost })

let page_in t pindex frame =
  match Blockvec.get t.pages pindex with
  | Some (Paged_out _) -> Blockvec.set t.pages pindex (Some (Resident frame))
  | Some (Resident _) -> invalid_arg "Vmobject.page_in: page already resident"
  | None -> invalid_arg "Vmobject.page_in: no such page"

let page_out t pindex ~read_cost =
  match Blockvec.get t.pages pindex with
  | Some (Resident f) ->
    if f.Frame.refcount > 1 then invalid_arg "Vmobject.page_out: frame is shared";
    let content = f.Frame.content in
    Frame.decref t.pool f;
    Blockvec.set t.pages pindex (Some (Paged_out { content; read_cost }));
    content
  | Some (Paged_out _) -> invalid_arg "Vmobject.page_out: already paged out"
  | None -> invalid_arg "Vmobject.page_out: no such page"

(* --- checkpoint support ------------------------------------------- *)

type flush_item = { pindex : int; content : Content.t; frame : Frame.t option }

let arm_for_checkpoint t ~mode =
  let arm items pindex =
    match Blockvec.get t.pages pindex with
    | None -> items (* dirty mark on a page this object does not hold *)
    | Some slot ->
      Pageset.add t.armed pindex;
      let item =
        match slot with
        | Resident f ->
          Frame.incref f;
          { pindex; content = f.Frame.content; frame = Some f }
        | Paged_out { content; _ } -> { pindex; content; frame = None }
      in
      item :: items
  in
  (* Both walks go down, so consing leaves the items in ascending
     pindex order. *)
  let items =
    match mode with
    | `Full ->
      let items = ref [] in
      for pindex = Blockvec.length t.pages - 1 downto 0 do
        items := arm !items pindex
      done;
      !items
    | `Dirty_only ->
      (* Dirty pages, plus pages never captured by any checkpoint
         (present but neither armed nor dirty can only mean "captured
         before and unmodified since", so those are skipped). A page is
         "never captured" exactly when it is dirty — pages are marked
         dirty at birth — so the dirty set is complete. *)
      Pageset.fold_desc t.dirty ~init:[] ~f:arm
  in
  Pageset.clear t.dirty;
  items

let release_flush_item ~pool item =
  match item.frame with
  | Some f -> Frame.decref pool f
  | None -> ()

let is_armed t pindex = Pageset.mem t.armed pindex
let cow_breaks t = t.cow_breaks
let reset_cow_breaks t = t.cow_breaks <- 0
let armed_count t = t.armed.Pageset.count
let dirty_count t = t.dirty.Pageset.count
let mark_dirty t pindex = Pageset.add t.dirty pindex

let disarm_for_write t pindex =
  if not (is_armed t pindex) then
    invalid_arg "Vmobject.disarm_for_write: page not armed";
  match Blockvec.get t.pages pindex with
  | Some (Resident old_frame) ->
    (* Aurora's COW: a new page shared between all processes mapping
       this object; the old frame stays alive while the flusher holds
       its reference. *)
    let fresh = Frame.alloc t.pool old_frame.Frame.content in
    Frame.decref t.pool old_frame;
    Blockvec.set t.pages pindex (Some (Resident fresh));
    Pageset.remove t.armed pindex;
    t.cow_breaks <- t.cow_breaks + 1;
    mark_dirty t pindex;
    fresh
  | Some (Paged_out _) | None ->
    invalid_arg "Vmobject.disarm_for_write: page not resident"

(* --- heat / clock ------------------------------------------------- *)

let touch t pindex =
  (match Blockvec.get t.pages pindex with
   | Some (Resident f) -> f.Frame.accessed <- true
   | Some (Paged_out _) | None -> ());
  let c = pindex asr heat_shift in
  let chunk =
    match Blockvec.get t.heat c with
    | [||] ->
      let chunk = Array.make heat_chunk 0 in
      Blockvec.set t.heat c chunk;
      chunk
    | chunk -> chunk
  in
  let i = pindex land (heat_chunk - 1) in
  let h = chunk.(i) in
  if h = 0 then t.heated <- t.heated + 1;
  chunk.(i) <- h + 1

let heat t pindex =
  match Blockvec.get t.heat (pindex asr heat_shift) with
  | [||] -> 0
  | chunk -> chunk.(pindex land (heat_chunk - 1))

let age_heat t =
  for c = 0 to Blockvec.length t.heat - 1 do
    let chunk = Blockvec.get t.heat c in
    for i = 0 to Array.length chunk - 1 do
      let h = chunk.(i) in
      if h > 0 then begin
        if h = 1 then t.heated <- t.heated - 1;
        chunk.(i) <- h / 2
      end
    done
  done

(* Hottest first: heat descending, ties by page index ascending. *)
let hotter (ka, va) (kb, vb) = match Int.compare vb va with 0 -> Int.compare ka kb | c -> c

let hot_pages t ~limit =
  if limit < 0 then invalid_arg "Vmobject.hot_pages: negative limit";
  if limit >= t.heated then begin
    let all = ref [] in
    for c = 0 to Blockvec.length t.heat - 1 do
      let chunk = Blockvec.get t.heat c in
      for i = 0 to Array.length chunk - 1 do
        if chunk.(i) > 0 then all := ((c lsl heat_shift) lor i, chunk.(i)) :: !all
      done
    done;
    List.sort hotter !all |> List.map fst
  end
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
    for c = 0 to Blockvec.length t.heat - 1 do
      let chunk = Blockvec.get t.heat c in
      for i = 0 to Array.length chunk - 1 do
        let k = (c lsl heat_shift) lor i and v = chunk.(i) in
        if v > 0 then
          if !size < limit then begin
            sift_up !size k v;
            incr size
          end
          else if colder keys.(0) heats.(0) k v then sift_down 0 k v
      done
    done;
    List.init limit (fun i -> (keys.(i), heats.(i))) |> List.sort hotter |> List.map fst
  end

(* --- iteration / stats -------------------------------------------- *)

let resident_count t =
  fold_pages t ~init:0 ~f:(fun acc _ -> function Resident _ -> acc + 1 | Paged_out _ -> acc)

let rec chain_depth t =
  match t.shadow with None -> 1 | Some backing -> 1 + chain_depth backing
