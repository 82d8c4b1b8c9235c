type 'a t = { mutable slots : 'a array; default : 'a }

let initial_length = 1024

let create default = { slots = [||]; default }

let get t i =
  if i >= 0 && i < Array.length t.slots then Array.unsafe_get t.slots i else t.default

let grow t i =
  let n = ref (max initial_length (Array.length t.slots)) in
  while !n <= i do
    n := 2 * !n
  done;
  let slots = Array.make !n t.default in
  Array.blit t.slots 0 slots 0 (Array.length t.slots);
  t.slots <- slots

let set t i v =
  if i >= Array.length t.slots then grow t i;
  t.slots.(i) <- v

let length t = Array.length t.slots

let clear t = Array.fill t.slots 0 (Array.length t.slots) t.default
