open Aurora_device

(* Content hashes are only looked up, never iterated. *)
module By_hash = Hashtbl.Make (struct
  type t = int64
  let equal = Int64.equal
  let hash = Hashtbl.hash
end)

type t = {
  by_hash : int By_hash.t;
  by_block : int64 Blockvec.t;
  (* A block has an entry when [by_hash] maps its hash here back to it;
     a slot never set reads 0L. *)
  mutable hits : int;
  mutable misses : int;
  mutable bytes_saved : int;
}

let create ~alloc =
  let t = { by_hash = By_hash.create 4096; by_block = Blockvec.create 0L;
            hits = 0; misses = 0; bytes_saved = 0 } in
  Alloc.add_on_free alloc (fun block ->
      let hash = Blockvec.get t.by_block block in
      match By_hash.find_opt t.by_hash hash with
      | Some b when b = block ->
        Blockvec.set t.by_block block 0L;
        By_hash.remove t.by_hash hash
      | Some _ | None -> ());
  t

let peek t ~hash = By_hash.find_opt t.by_hash hash

let find t ~hash =
  match By_hash.find_opt t.by_hash hash with
  | Some block ->
    t.hits <- t.hits + 1;
    Some block
  | None ->
    t.misses <- t.misses + 1;
    None

let add t ~hash ~block =
  (match By_hash.find_opt t.by_hash hash with
   | Some existing when existing <> block ->
     invalid_arg "Dedup.add: hash already mapped to a different block"
   | Some _ | None -> ());
  By_hash.replace t.by_hash hash block;
  Blockvec.set t.by_block block hash

let entries t = By_hash.length t.by_hash
let hits t = t.hits
let misses t = t.misses
let bytes_saved t = t.bytes_saved

let note_saved t ~bytes =
  if bytes < 0 then invalid_arg "Dedup.note_saved: negative size";
  t.bytes_saved <- t.bytes_saved + bytes

let reset t =
  By_hash.reset t.by_hash;
  Blockvec.clear t.by_block
