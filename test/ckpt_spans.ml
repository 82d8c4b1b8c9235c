(* Checkpoints a persistence group took, counted as its [ckpt] root
   spans in the machine's span recorder. *)

open Aurora_simtime
open Aurora_sls

let count m g =
  let pgid = string_of_int g.Types.pgid in
  List.length
    (List.filter
       (fun (s : Span.span) ->
         s.Span.name = "ckpt" && List.assoc_opt "pgid" s.Span.attrs = Some pgid)
       (Span.spans (Machine.spans m)))
