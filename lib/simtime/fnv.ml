let fnv1a s =
  let h = ref 0xCBF29CE484222325L in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) 0x100000001B3L
  done;
  !h
