type t = { mutable now : Duration.t }

let create () = { now = Duration.zero }
let now c = c.now
let advance c d = c.now <- Duration.add c.now d
let advance_to c t = if Duration.(t > c.now) then c.now <- t

let lap c f =
  let start = c.now in
  let result = f () in
  (result, Duration.sub c.now start)
