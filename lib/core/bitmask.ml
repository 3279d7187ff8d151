(* 62 bits per word keeps every word and every prefix mask non-negative. *)
let width = 62

let lowest x =
  let x = ref (x land -x) and n = ref 0 in
  if !x land 0xFFFF_FFFF = 0 then (n := 32; x := !x lsr 32);
  if !x land 0xFFFF = 0 then (n := !n + 16; x := !x lsr 16);
  if !x land 0xFF = 0 then (n := !n + 8; x := !x lsr 8);
  if !x land 0xF = 0 then (n := !n + 4; x := !x lsr 4);
  if !x land 0x3 = 0 then (n := !n + 2; x := !x lsr 2);
  if !x land 0x1 = 0 then incr n;
  !n
