open Aurora_simtime
open Aurora_device

type entry = {
  mutable start_vpn : int;
  mutable npages : int;
  mutable obj : Vmobject.t;
  mutable obj_offset : int;
  mutable writable : bool;
  mutable inheritance : [ `Share | `Copy ];
  mutable needs_copy : bool;
  mutable persisted : bool;
}

type fault_counts = {
  mutable zero_fill : int;
  mutable fork_cow : int;
  mutable ckpt_cow : int;
  mutable major : int;
}

type t = {
  asid : int;
  clock : Clock.t;
  pool : Frame.pool;
  mutable entries : entry list; (* sorted by start_vpn *)
  mutable hint : entry option; (* the entry [entry_at] found last *)
  mutable next_vpn : int;
  faults : fault_counts;
}

let next_asid = ref 0

let create ~clock ~pool () =
  incr next_asid;
  { asid = !next_asid; clock; pool; entries = []; hint = None; next_vpn = 0x1000;
    faults = { zero_fill = 0; fork_cow = 0; ckpt_cow = 0; major = 0 } }

let pool t = t.pool
let entries t = t.entries
let faults t = t.faults

let insert_entry t e =
  t.entries <-
    List.sort (fun a b -> Int.compare a.start_vpn b.start_vpn) (e :: t.entries)

let alloc_range t npages =
  let start = t.next_vpn in
  t.next_vpn <- t.next_vpn + npages + 16; (* guard gap *)
  start

let map_anonymous t ?(inheritance = `Copy) ?(writable = true) ~npages () =
  if npages <= 0 then invalid_arg "Vmmap.map_anonymous: npages <= 0";
  let obj = Vmobject.create ~pool:t.pool Vmobject.Anonymous in
  let e =
    { start_vpn = alloc_range t npages; npages; obj; obj_offset = 0; writable;
      inheritance; needs_copy = false; persisted = true }
  in
  insert_entry t e;
  e

let map_object t ?(inheritance = `Share) ?(writable = true) ~obj ~obj_offset ~npages () =
  if npages <= 0 then invalid_arg "Vmmap.map_object: npages <= 0";
  if obj_offset < 0 then invalid_arg "Vmmap.map_object: negative offset";
  Vmobject.incref obj;
  let e =
    { start_vpn = alloc_range t npages; npages; obj; obj_offset; writable;
      inheritance; needs_copy = false; persisted = true }
  in
  insert_entry t e;
  e

let map_fixed t ~start_vpn ?(inheritance = `Share) ?(writable = true) ~obj ~obj_offset
    ~npages () =
  if npages <= 0 then invalid_arg "Vmmap.map_fixed: npages <= 0";
  let overlaps e =
    start_vpn < e.start_vpn + e.npages && e.start_vpn < start_vpn + npages
  in
  if List.exists overlaps t.entries then invalid_arg "Vmmap.map_fixed: range overlaps";
  Vmobject.incref obj;
  let e =
    { start_vpn; npages; obj; obj_offset; writable; inheritance;
      needs_copy = false; persisted = true }
  in
  insert_entry t e;
  if start_vpn + npages + 16 > t.next_vpn then t.next_vpn <- start_vpn + npages + 16;
  e

let unmap t e =
  if not (List.memq e t.entries) then invalid_arg "Vmmap.unmap: entry not in this map";
  t.entries <- List.filter (fun x -> not (x == e)) t.entries;
  t.hint <- None;
  Vmobject.decref e.obj

let destroy t =
  List.iter (fun e -> Vmobject.decref e.obj) t.entries;
  t.entries <- [];
  t.hint <- None

let covers vpn e = vpn >= e.start_vpn && vpn < e.start_vpn + e.npages

(* Entries never overlap, so a hint that covers [vpn] is the answer. *)
let entry_at t vpn =
  match t.hint with
  | Some e as hit when covers vpn e -> hit
  | _ ->
    let found = List.find_opt (covers vpn) t.entries in
    if Option.is_some found then t.hint <- found;
    found

exception Fault of string

let require_entry t vpn =
  match entry_at t vpn with
  | Some e -> e
  | None -> raise (Fault (Printf.sprintf "as#%d: unmapped vpn 0x%x" t.asid vpn))

let pindex_of e vpn = e.obj_offset + (vpn - e.start_vpn)

(* Demand fault on read: pull a paged-out page in through the whole
   shadow chain. Returns the object that holds the page (the chain's
   last object when none does), with the page now resident there if it
   is present at all. *)
let fault_in t e pindex =
  let owner = Vmobject.resolve e.obj pindex in
  (match Vmobject.status owner pindex with
   | Vmobject.Resident -> Vmobject.touch owner pindex
   | Vmobject.Paged_out ->
     (* Major fault: bring the page in from its backing device. *)
     t.faults.major <- t.faults.major + 1;
     Clock.advance t.clock Costmodel.page_fault_trap;
     Clock.advance t.clock (Vmobject.read_cost owner pindex);
     Vmobject.page_in owner pindex;
     Vmobject.touch owner pindex
   | Vmobject.Absent -> ());
  owner

let read t ~vpn =
  let e = require_entry t vpn in
  let pindex = pindex_of e vpn in
  Vmobject.content (fault_in t e pindex) pindex

let read_value t ~vpn ~offset =
  if offset < 0 || offset >= Blockdev.block_size then
    invalid_arg "Vmmap.read_value: offset outside page";
  let e = require_entry t vpn in
  let pindex = pindex_of e vpn in
  Vmobject.load (fault_in t e pindex) pindex ~offset

(* Aurora checkpoint COW on an armed resident page: a new copy shared
   by all mappers. *)
let ckpt_cow t obj pindex =
  t.faults.ckpt_cow <- t.faults.ckpt_cow + 1;
  Clock.advance t.clock Costmodel.cow_fault_service;
  Vmobject.disarm_for_write obj pindex

(* The write path: resolve the page, handling in order
   (1) fork-COW shadowing, (2) major fault page-in, (3) checkpoint-COW
   on armed pages, (4) copy-up from a backing object, (5) demand-zero.
   Then store into the page in place. *)
let write t ~vpn ~offset ~value =
  let e = require_entry t vpn in
  if not e.writable then
    raise (Fault (Printf.sprintf "as#%d: write to read-only vpn 0x%x" t.asid vpn));
  if e.needs_copy then begin
    e.obj <- Vmobject.make_shadow e.obj;
    (* make_shadow took a reference on the backing for the shadow;
       the entry's own reference moves to the shadow, so drop the
       entry's reference on the old object. *)
    (match Vmobject.shadow_of e.obj with
     | Some backing -> Vmobject.decref backing
     | None -> assert false);
    e.needs_copy <- false
  end;
  let pindex = pindex_of e vpn in
  let obj = e.obj in
  let owner = Vmobject.resolve obj pindex in
  (match Vmobject.status owner pindex with
   | Vmobject.Absent ->
     t.faults.zero_fill <- t.faults.zero_fill + 1;
     Clock.advance t.clock Costmodel.page_fault_trap;
     Clock.advance t.clock Costmodel.zero_fill_fault;
     Vmobject.install obj pindex Content.zero;
     Vmobject.mark_dirty obj pindex
   | status when owner != obj ->
     (* Page lives in a backing object: fork-COW copy-up into obj. *)
     t.faults.fork_cow <- t.faults.fork_cow + 1;
     Clock.advance t.clock Costmodel.page_fault_trap;
     Clock.advance t.clock Costmodel.cow_fault_service;
     (match status with
      | Vmobject.Paged_out ->
        t.faults.major <- t.faults.major + 1;
        Clock.advance t.clock (Vmobject.read_cost owner pindex)
      | Vmobject.Resident | Vmobject.Absent -> ());
     Vmobject.install obj pindex (Vmobject.content owner pindex);
     Vmobject.mark_dirty obj pindex
   | Vmobject.Resident ->
     if Vmobject.is_armed obj pindex then begin
       Clock.advance t.clock Costmodel.page_fault_trap;
       ckpt_cow t obj pindex
     end
     else Vmobject.mark_dirty obj pindex
   | Vmobject.Paged_out ->
     t.faults.major <- t.faults.major + 1;
     Clock.advance t.clock Costmodel.page_fault_trap;
     Clock.advance t.clock (Vmobject.read_cost obj pindex);
     Vmobject.page_in obj pindex;
     (* Was armed while paged out? The image still holds the old
        content, so writing the fresh resident copy is safe; it just
        becomes dirty for the next checkpoint. *)
     if Vmobject.is_armed obj pindex then ckpt_cow t obj pindex
     else Vmobject.mark_dirty obj pindex);
  Vmobject.write obj pindex ~offset ~value;
  Vmobject.touch obj pindex

let load_page t ~vpn content =
  (* Route through the write path for the fault taxonomy, then replace
     the whole contents, paying one in-memory page copy. *)
  write t ~vpn ~offset:0 ~value:0L;
  let e = require_entry t vpn in
  Vmobject.set_content e.obj (pindex_of e vpn) content;
  Clock.advance t.clock (Costmodel.page_copy ~pages:1)

let fork t =
  let child = create ~clock:t.clock ~pool:t.pool () in
  child.next_vpn <- t.next_vpn;
  let clone_entry e =
    (match e.inheritance with
     | `Share -> Vmobject.incref e.obj
     | `Copy ->
       Vmobject.incref e.obj;
       (* Both sides must now copy before writing into the shared
          backing object. *)
       e.needs_copy <- true);
    { e with needs_copy = (match e.inheritance with `Share -> false | `Copy -> true) }
  in
  child.entries <- List.map clone_entry t.entries;
  child

let distinct_objects t =
  let seen = Hashtbl.create 16 in
  let add acc obj =
    let id = Vmobject.oid obj in
    if Hashtbl.mem seen id then acc
    else begin
      Hashtbl.replace seen id ();
      obj :: acc
    end
  in
  let rec add_chain acc obj =
    let acc = add acc obj in
    match Vmobject.shadow_of obj with
    | Some backing when not (Hashtbl.mem seen (Vmobject.oid backing)) ->
      add_chain acc backing
    | Some _ | None -> acc
  in
  List.rev (List.fold_left (fun acc e -> add_chain acc e.obj) [] t.entries)

let resident_pages t =
  List.fold_left (fun acc obj -> acc + Vmobject.resident_count obj) 0 (distinct_objects t)

let total_pages t = List.fold_left (fun acc e -> acc + e.npages) 0 t.entries
