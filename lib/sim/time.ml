type t = int

let zero = 0
let ns x = x
let us x = x * 1_000
let ms x = x * 1_000_000
let s x = x * 1_000_000_000
let of_us_float x = int_of_float (Float.round (x *. 1_000.))
let to_us_float t = float_of_int t /. 1_000.
let to_ms_float t = float_of_int t /. 1_000_000.
let to_s_float t = float_of_int t /. 1_000_000_000.

(* The paper's server: Intel Xeon Gold 5418Y at 2.0 GHz (§5, setup). *)
let cycles_per_ns = 2.0
let of_cycles c = int_of_float (Float.round (float_of_int c /. cycles_per_ns))

let pp ppf t =
  if t < 1_000 then Format.fprintf ppf "%dns" t
  else if t < 1_000_000 then Format.fprintf ppf "%.2fus" (to_us_float t)
  else if t < 1_000_000_000 then Format.fprintf ppf "%.2fms" (to_ms_float t)
  else Format.fprintf ppf "%.2fs" (to_s_float t)

