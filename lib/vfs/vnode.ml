type vtype = Reg | Dir

type t = {
  vid : int;
  vtype : vtype;
  mutable nlink : int;
  mutable open_count : int;
  mutable persistent_open : int;
  mutable size : int;
  chunks : (int, bytes) Hashtbl.t;
  dirty : (int, unit) Hashtbl.t;
}

let chunk_size = 4096
let next_vid = ref 0

let create ?vid vtype =
  let vid =
    match vid with
    | None ->
      incr next_vid;
      !next_vid
    | Some v ->
      if v > !next_vid then next_vid := v;
      v
  in
  { vid; vtype; nlink = 1; open_count = 0; persistent_open = 0;
    size = 0; chunks = Hashtbl.create 8; dirty = Hashtbl.create 8 }

let check_reg t op =
  if t.vtype <> Reg then invalid_arg (Printf.sprintf "Vnode.%s: not a regular file" op)

let read t ~off ~len =
  check_reg t "read";
  if off < 0 || len < 0 then invalid_arg "Vnode.read: negative offset or length";
  let len = if off >= t.size then 0 else min len (t.size - off) in
  let out = Bytes.make len '\000' in
  let pos = ref 0 in
  while !pos < len do
    let abs = off + !pos in
    let ci = abs / chunk_size and coff = abs mod chunk_size in
    let n = min (chunk_size - coff) (len - !pos) in
    (match Hashtbl.find_opt t.chunks ci with
     | Some chunk ->
       let avail = Bytes.length chunk - coff in
       if avail > 0 then Bytes.blit chunk coff out !pos (min n avail)
     | None -> ());
    pos := !pos + n
  done;
  out

let ensure_chunk t ci =
  match Hashtbl.find_opt t.chunks ci with
  | Some c when Bytes.length c = chunk_size -> c
  | Some c ->
    let full = Bytes.make chunk_size '\000' in
    Bytes.blit c 0 full 0 (Bytes.length c);
    Hashtbl.replace t.chunks ci full;
    full
  | None ->
    let full = Bytes.make chunk_size '\000' in
    Hashtbl.replace t.chunks ci full;
    full

let write t ~off data =
  check_reg t "write";
  if off < 0 then invalid_arg "Vnode.write: negative offset";
  let len = Bytes.length data in
  let pos = ref 0 in
  while !pos < len do
    let abs = off + !pos in
    let ci = abs / chunk_size and coff = abs mod chunk_size in
    let n = min (chunk_size - coff) (len - !pos) in
    let chunk = ensure_chunk t ci in
    Bytes.blit data !pos chunk coff n;
    Hashtbl.replace t.dirty ci ();
    pos := !pos + n
  done;
  if off + len > t.size then t.size <- off + len

let append t data = write t ~off:t.size data

let truncate t new_size =
  check_reg t "truncate";
  if new_size < 0 then invalid_arg "Vnode.truncate: negative size";
  if new_size < t.size then begin
    let last_chunk = if new_size = 0 then -1 else (new_size - 1) / chunk_size in
    let to_remove =
      Hashtbl.fold (fun ci _ acc -> if ci > last_chunk then ci :: acc else acc) t.chunks []
    in
    List.iter (Hashtbl.remove t.chunks) to_remove;
    (* Zero the tail of the boundary chunk so re-extension reads
       zeroes, and mark it dirty. *)
    if last_chunk >= 0 then begin
      match Hashtbl.find_opt t.chunks last_chunk with
      | Some chunk ->
        let keep = new_size - (last_chunk * chunk_size) in
        Bytes.fill chunk keep (Bytes.length chunk - keep) '\000';
        Hashtbl.replace t.dirty last_chunk ()
      | None -> ()
    end
  end;
  t.size <- new_size

let dirty_chunks t =
  List.sort Int.compare (Hashtbl.fold (fun ci () acc -> ci :: acc) t.dirty [])

let clear_dirty t = Hashtbl.reset t.dirty

let equal_data a b =
  a.size = b.size
  &&
  let rec chunks_equal ci =
    if ci * chunk_size >= a.size then true
    else
      let bytes_a = read a ~off:(ci * chunk_size) ~len:chunk_size in
      let bytes_b = read b ~off:(ci * chunk_size) ~len:chunk_size in
      Bytes.equal bytes_a bytes_b && chunks_equal (ci + 1)
  in
  chunks_equal 0
