type t =
  | Compute of Time.t * (unit -> t)
  | Block of (unit -> t)
  | Yield of (unit -> t)
  | Exit

let compute_then_exit d = Compute (d, fun () -> Exit)

let forever_compute_block d =
  let rec round () = Compute (d, fun () -> Block round) in
  round ()

let repeat n f tail =
  let rec go i = if i >= n then tail else f i (go (i + 1)) in
  go 0
