let msb v =
  let v = ref v and m = ref 0 in
  if !v lsr 32 <> 0 then begin v := !v lsr 32; m := 32 end;
  if !v lsr 16 <> 0 then begin v := !v lsr 16; m := !m + 16 end;
  if !v lsr 8 <> 0 then begin v := !v lsr 8; m := !m + 8 end;
  if !v lsr 4 <> 0 then begin v := !v lsr 4; m := !m + 4 end;
  if !v lsr 2 <> 0 then begin v := !v lsr 2; m := !m + 2 end;
  if !v lsr 1 <> 0 then !m + 1 else !m
