(* Open addressing with linear probing over one [Bytes] of 16-byte
   slots, each a hash and its value side by side, so a probe touches
   one cache line; a slot whose value is -1 is empty. A hash's home
   slot is its low bits. The slot count is a power of two and at least
   twice the entry count, so every probe run ends at an empty slot. *)
module Table = struct
  type t = { mutable slots : Bytes.t; mutable mask : int; mutable count : int }

  let empty_slots n =
    let b = Bytes.make (16 * n) '\000' in
    for i = 0 to n - 1 do
      Bytes.set_int64_le b ((16 * i) + 8) (-1L)
    done;
    b

  let create entries =
    let n = ref 16 in
    while !n < 2 * entries do
      n := 2 * !n
    done;
    { slots = empty_slots !n; mask = !n - 1; count = 0 }

  let[@inline] hash_at t i = Bytes.get_int64_le t.slots (16 * i)
  let[@inline] value_at t i = Int64.to_int (Bytes.get_int64_le t.slots ((16 * i) + 8))
  let[@inline] set_value t i v = Bytes.set_int64_le t.slots ((16 * i) + 8) (Int64.of_int v)

  (* The slot holding [hash], or the empty slot that ends its run. *)
  let slot t hash =
    let i = ref (Int64.to_int hash land t.mask) in
    while value_at t !i >= 0 && not (Int64.equal (hash_at t !i) hash) do
      i := (!i + 1) land t.mask
    done;
    !i

  let find t hash = value_at t (slot t hash)

  let length t = t.count

  let rec replace t hash v =
    if v < 0 then invalid_arg "Dedup.Table.replace: negative value";
    let i = slot t hash in
    if value_at t i >= 0 then set_value t i v
    else if 2 * (t.count + 1) > t.mask + 1 then begin
      grow t;
      replace t hash v
    end
    else begin
      Bytes.set_int64_le t.slots (16 * i) hash;
      set_value t i v;
      t.count <- t.count + 1
    end

  and grow t =
    let old = t.slots and n = t.mask + 1 in
    t.slots <- empty_slots (2 * n);
    t.mask <- (2 * n) - 1;
    t.count <- 0;
    for i = 0 to n - 1 do
      let v = Int64.to_int (Bytes.get_int64_le old ((16 * i) + 8)) in
      if v >= 0 then replace t (Bytes.get_int64_le old (16 * i)) v
    done

  (* Backward-shift deletion: walk the rest of the run and move back
     into the hole every entry whose home slot does not lie cyclically
     in (hole, j], so no run is left broken by an empty slot. *)
  let remove t hash =
    let hole = ref (slot t hash) in
    if value_at t !hole >= 0 then begin
      t.count <- t.count - 1;
      let j = ref ((!hole + 1) land t.mask) in
      while value_at t !j >= 0 do
        let home = Int64.to_int (hash_at t !j) land t.mask in
        let stays = if !hole <= !j then home > !hole && home <= !j else home > !hole || home <= !j in
        if not stays then begin
          Bytes.blit t.slots (16 * !j) t.slots (16 * !hole) 16;
          hole := !j
        end;
        j := (!j + 1) land t.mask
      done;
      set_value t !hole (-1)
    end

  let clear t =
    for i = 0 to t.mask do
      set_value t i (-1)
    done;
    t.count <- 0
end

type t = {
  by_hash : Table.t;
  mutable by_block : Bytes.t;
  (* The hash of each block, 8 bytes a block. A block has an entry when
     [by_hash] maps its hash here back to it; a slot never set reads 0. *)
  mutable hits : int;
  mutable misses : int;
  mutable bytes_saved : int;
}

let hash_of t block =
  if 8 * block < Bytes.length t.by_block then Bytes.get_int64_le t.by_block (8 * block) else 0L

let set_hash t block hash =
  if 8 * block >= Bytes.length t.by_block then begin
    let n = ref (max 1024 (Bytes.length t.by_block / 8)) in
    while !n <= block do
      n := 2 * !n
    done;
    let b = Bytes.make (8 * !n) '\000' in
    Bytes.blit t.by_block 0 b 0 (Bytes.length t.by_block);
    t.by_block <- b
  end;
  Bytes.set_int64_le t.by_block (8 * block) hash

let create ~alloc =
  let t = { by_hash = Table.create 0; by_block = Bytes.empty; hits = 0; misses = 0;
            bytes_saved = 0 } in
  Alloc.add_on_free alloc (fun block ->
      let hash = hash_of t block in
      if Table.find t.by_hash hash = block then begin
        set_hash t block 0L;
        Table.remove t.by_hash hash
      end);
  t

let peek t ~hash = Table.find t.by_hash hash

let find t ~hash =
  let block = Table.find t.by_hash hash in
  if block >= 0 then t.hits <- t.hits + 1 else t.misses <- t.misses + 1;
  block

let add t ~hash ~block =
  let existing = Table.find t.by_hash hash in
  if existing >= 0 && existing <> block then
    invalid_arg "Dedup.add: hash already mapped to a different block";
  Table.replace t.by_hash hash block;
  set_hash t block hash

let entries t = Table.length t.by_hash
let hits t = t.hits
let misses t = t.misses
let bytes_saved t = t.bytes_saved

let note_saved t ~bytes =
  if bytes < 0 then invalid_arg "Dedup.note_saved: negative size";
  t.bytes_saved <- t.bytes_saved + bytes

let reset t =
  Table.clear t.by_hash;
  Bytes.fill t.by_block 0 (Bytes.length t.by_block) '\000'
