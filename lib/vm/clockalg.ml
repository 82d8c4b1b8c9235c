type victim = { obj : Vmobject.t; pindex : int }

type t = { mutable hand : int }

let create () = { hand = 0 }

(* Resident pages of the objects, in a stable order: (object id, page
   index). *)
let resident_pages objects =
  let pages =
    List.concat_map
      (fun obj ->
        Vmobject.fold_pages obj ~init:[] ~f:(fun acc pindex status ->
            match status with
            | Vmobject.Resident -> { obj; pindex } :: acc
            | Vmobject.Paged_out | Vmobject.Absent -> acc)
        |> List.rev)
      objects
  in
  Array.of_list pages

let sweep t ~objects ~want =
  if want < 0 then invalid_arg "Clockalg.sweep: negative want";
  let pages = resident_pages objects in
  let n = Array.length pages in
  if n = 0 || want = 0 then []
  else begin
    let victims = ref [] in
    let found = ref 0 in
    let steps = ref 0 in
    (* Two revolutions: the first clears accessed bits, the second can
       then evict pages untouched since. *)
    while !found < want && !steps < 2 * n do
      let page = pages.(t.hand mod n) in
      t.hand <- t.hand + 1;
      incr steps;
      if not (Vmobject.held page.obj page.pindex) then
        if not (Vmobject.take_accessed page.obj page.pindex) then begin
          victims := page :: !victims;
          incr found
        end
    done;
    List.rev !victims
  end
