type t = { cid : int; name : string }

let host = { cid = 0; name = "host" }
