open Aurora_simtime
open Aurora_device

type kind = Anonymous | Vnode of int

type status = Absent | Resident | Paged_out

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

(* A page's state byte: absent (0), resident or paged out. *)
let st_resident = 1
let st_paged_out = 2

type t = {
  oid : int;
  kind : kind;
  pool : Frame.pool;
  (* Page columns, indexed by pindex, all [capacity t] slots long.
     [costs] stays empty until a page is paged out. *)
  mutable seeds : Bytes.t; (* content, [Content.slot_bytes] a slot *)
  mutable states : Bytes.t; (* state byte *)
  mutable costs : Duration.t array; (* a paged-out page's read cost *)
  mutable resident : int;
  mutable shadow : t option;
  mutable refcount : int;
  mutable captured : bool; (* armed at least once *)
  dirty : Pageset.t;
  armed : Pageset.t;
  heat : int array Blockvec.t; (* chunk [pindex / heat_chunk]; empty until touched *)
  mutable heated : int; (* pages whose heat is nonzero *)
  mutable cow_breaks : int;
}

let next_oid = ref 0

let create ~pool kind =
  incr next_oid;
  { oid = !next_oid; kind; pool; seeds = Bytes.empty; states = Bytes.empty; costs = [||];
    resident = 0; shadow = None; refcount = 1; captured = false; dirty = Pageset.create ();
    armed = Pageset.create (); heat = Blockvec.create [||]; heated = 0; cow_breaks = 0 }

let oid t = t.oid
let kind t = t.kind
let shadow_of t = t.shadow

(* --- page columns ------------------------------------------------- *)

let capacity t = Bytes.length t.states

let[@inline] state t pindex =
  if pindex >= 0 && pindex < capacity t then Char.code (Bytes.unsafe_get t.states pindex)
  else 0

let[@inline] set_state t pindex s = Bytes.unsafe_set t.states pindex (Char.unsafe_chr s)
let[@inline] is_resident t pindex = state t pindex = st_resident

let status t pindex =
  let s = state t pindex in
  if s = st_resident then Resident else if s = st_paged_out then Paged_out else Absent

(* Every column in use, lengthened to [n] slots. *)
let resize t n =
  let bytes b width =
    let b' = Bytes.make (n * width) '\000' in
    Bytes.blit b 0 b' 0 (Bytes.length b);
    b'
  in
  let column a zero =
    if Array.length a = 0 then a
    else begin
      let a' = Array.make n zero in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    end
  in
  t.seeds <- bytes t.seeds Content.slot_bytes;
  t.states <- bytes t.states 1;
  t.costs <- column t.costs Duration.zero

(* Grows by doubling, so installing pages in order costs a constant
   amortized copy each. *)
let ensure t pindex =
  if pindex < 0 then invalid_arg "Vmobject: negative page index";
  if pindex >= capacity t then resize t (max (pindex + 1) (max 16 (2 * capacity t)))

let reserve t ~pages = if pages > capacity t then resize t pages

let costs t =
  if Array.length t.costs = 0 then t.costs <- Array.make (capacity t) Duration.zero;
  t.costs

let content t pindex =
  if pindex >= 0 && pindex < capacity t then Content.get t.seeds pindex else Content.zero

let load t pindex ~offset =
  if pindex >= 0 && pindex < capacity t then Content.load_in t.seeds pindex ~offset
  else Content.load Content.zero ~offset

let read_cost t pindex =
  if state t pindex = st_paged_out then t.costs.(pindex) else Duration.zero

let fold_pages t ~init ~f =
  let acc = ref init in
  for pindex = 0 to capacity t - 1 do
    match status t pindex with
    | Absent -> ()
    | s -> acc := f !acc pindex s
  done;
  !acc

let resident_count t = t.resident

(* --- copies ------------------------------------------------------- *)

let incref t =
  if t.refcount <= 0 then invalid_arg "Vmobject.incref: dead object";
  t.refcount <- t.refcount + 1

let rec decref t =
  if t.refcount <= 0 then invalid_arg "Vmobject.decref: dead object";
  t.refcount <- t.refcount - 1;
  if t.refcount = 0 then begin
    Frame.release t.pool t.resident;
    t.resident <- 0;
    t.seeds <- Bytes.empty;
    t.states <- Bytes.empty;
    t.costs <- [||];
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

let rec resolve t pindex =
  if state t pindex <> 0 then t
  else match t.shadow with Some backing -> resolve backing pindex | None -> t

let install t pindex content =
  ensure t pindex;
  if is_resident t pindex then Frame.release t.pool 1 else t.resident <- t.resident + 1;
  Content.set t.seeds pindex content;
  set_state t pindex st_resident;
  Frame.alloc t.pool

let install_paged_out t pindex ~content ~read_cost =
  ensure t pindex;
  if is_resident t pindex then begin
    Frame.release t.pool 1;
    t.resident <- t.resident - 1
  end;
  Content.set t.seeds pindex content;
  set_state t pindex st_paged_out;
  (costs t).(pindex) <- read_cost

let page_in t pindex =
  match status t pindex with
  | Paged_out ->
    set_state t pindex st_resident;
    t.resident <- t.resident + 1;
    Frame.alloc t.pool
  | Resident -> invalid_arg "Vmobject.page_in: page already resident"
  | Absent -> invalid_arg "Vmobject.page_in: no such page"

let write t pindex ~offset ~value =
  if not (is_resident t pindex) then invalid_arg "Vmobject.write: page not resident";
  Content.write_in t.seeds pindex ~offset ~value

let set_content t pindex content =
  if not (is_resident t pindex) then invalid_arg "Vmobject.set_content: page not resident";
  Content.set t.seeds pindex content

(* --- checkpoint support ------------------------------------------- *)

type capture = { pindexes : int array; seeds : Bytes.t }

let arm t ~mode =
  let present pindex = state t pindex <> 0 in
  (* The object's first arming captures every present page, whatever
     the mode: none was captured before. After it, [`Dirty_only] walks
     the pages written since the previous arming, which include every
     page installed since (the fault paths mark a page they install
     dirty). A dirty mark on a page this object does not hold captures
     nothing. Both walks go down. *)
  let every_page = match mode with `Full -> true | `Dirty_only -> not t.captured in
  let walk ~init ~f =
    if every_page then begin
      let acc = ref init in
      for pindex = capacity t - 1 downto 0 do
        if present pindex then acc := f !acc pindex
      done;
      !acc
    end
    else
      Pageset.fold_desc t.dirty ~init ~f:(fun acc pindex ->
          if present pindex then f acc pindex else acc)
  in
  (* One pass counts the pages, so the columns are made at their exact
     size; the second fills them from the top. *)
  let n = walk ~init:0 ~f:(fun n _ -> n + 1) in
  let pindexes = Array.make n 0 and seeds = Bytes.create (n * Content.slot_bytes) in
  ignore
    (walk ~init:n ~f:(fun i pindex ->
         let i = i - 1 in
         Pageset.add t.armed pindex;
         pindexes.(i) <- pindex;
         Bytes.blit t.seeds (pindex * Content.slot_bytes) seeds (i * Content.slot_bytes)
           Content.slot_bytes;
         i));
  Pageset.clear t.dirty;
  t.captured <- true;
  { pindexes; seeds }

(* --- the list view ---------------------------------------------------- *)

type flush_item = { pindex : int; content : Content.t }

let arm_for_checkpoint t ~mode =
  let c = arm t ~mode in
  let items = ref [] in
  for i = Array.length c.pindexes - 1 downto 0 do
    items := { pindex = c.pindexes.(i); content = Content.get c.seeds i } :: !items
  done;
  !items

let release_flush_item ~pool:_ _ = ()

let is_armed t pindex = Pageset.mem t.armed pindex
let cow_breaks t = t.cow_breaks
let reset_cow_breaks t = t.cow_breaks <- 0
let armed_count t = t.armed.Pageset.count
let dirty_count t = t.dirty.Pageset.count
let mark_dirty t pindex = Pageset.add t.dirty pindex

let disarm_for_write t pindex =
  if not (is_armed t pindex) then
    invalid_arg "Vmobject.disarm_for_write: page not armed";
  if not (is_resident t pindex) then
    invalid_arg "Vmobject.disarm_for_write: page not resident";
  (* Aurora's COW: a new copy shared between all processes mapping this
     object; the capture already has the old content. *)
  Frame.alloc t.pool;
  Frame.release t.pool 1;
  Pageset.remove t.armed pindex;
  t.cow_breaks <- t.cow_breaks + 1;
  mark_dirty t pindex

(* --- heat --------------------------------------------------------- *)

let touch t pindex =
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

(* The highest heat of any page. *)
let hottest t =
  let m = ref 0 in
  for c = 0 to Blockvec.length t.heat - 1 do
    let chunk = Blockvec.get t.heat c in
    for i = 0 to Array.length chunk - 1 do
      if chunk.(i) > !m then m := chunk.(i)
    done
  done;
  !m

(* [counts.(d)]: the pages whose heat has 8-bit digit [d] at [shift] and
   the bits [prefix] above it. *)
let count_digits t ~shift ~prefix counts =
  Array.fill counts 0 256 0;
  for c = 0 to Blockvec.length t.heat - 1 do
    let chunk = Blockvec.get t.heat c in
    for i = 0 to Array.length chunk - 1 do
      let h = chunk.(i) lsr shift in
      if chunk.(i) > 0 && h lsr 8 = prefix then counts.(h land 255) <- counts.(h land 255) + 1
    done
  done

let hot_pages t ~limit =
  if limit < 0 then invalid_arg "Vmobject.hot_pages: negative limit";
  let n = min limit t.heated in
  if n = 0 then []
  else begin
    (* The cutoff is the [n]th highest heat. Find it 8 bits at a time,
       from the hottest page's top digit down: count the candidates'
       digits, take the digit where the [need]th hottest candidate
       falls, and keep only the candidates with that digit. [need] ends
       as the number of pages at the cutoff to take. *)
    let top = hottest t in
    let shift = ref 0 in
    while top lsr !shift > 255 do
      shift := !shift + 8
    done;
    let counts = Array.make 256 0 and prefix = ref 0 and need = ref n in
    let searching = ref true in
    while !searching do
      count_digits t ~shift:!shift ~prefix:!prefix counts;
      let d = ref 255 in
      while counts.(!d) < !need do
        need := !need - counts.(!d);
        decr d
      done;
      prefix := (!prefix lsl 8) lor !d;
      if !shift = 0 then searching := false else shift := !shift - 8
    done;
    let cutoff = !prefix and at_cutoff = !need in
    (* The pages above the cutoff, and the [at_cutoff] lowest page
       indexes at it, which are already in output order. *)
    let above = Array.make (n - at_cutoff) 0 and at = Array.make at_cutoff 0 in
    let na = ref 0 and nc = ref 0 in
    for c = 0 to Blockvec.length t.heat - 1 do
      let chunk = Blockvec.get t.heat c in
      for i = 0 to Array.length chunk - 1 do
        let h = chunk.(i) in
        if h > cutoff then begin
          above.(!na) <- (c lsl heat_shift) lor i;
          incr na
        end
        else if h = cutoff && !nc < at_cutoff then begin
          at.(!nc) <- (c lsl heat_shift) lor i;
          incr nc
        end
      done
    done;
    (* Hottest first: heat descending, ties by page index ascending. *)
    Array.stable_sort
      (fun a b -> match Int.compare (heat t b) (heat t a) with 0 -> Int.compare a b | c -> c)
      above;
    let pages = ref [] in
    for i = at_cutoff - 1 downto 0 do
      pages := at.(i) :: !pages
    done;
    for i = n - at_cutoff - 1 downto 0 do
      pages := above.(i) :: !pages
    done;
    !pages
  end

(* --- stats -------------------------------------------------------- *)

let rec chain_depth t =
  match t.shadow with None -> 1 | Some backing -> 1 + chain_depth backing
