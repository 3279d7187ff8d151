type t =
  | Compute of Time.t * (unit -> t)
  | Block of (unit -> t)
  | Yield of (unit -> t)
  | Exit

let compute_then_exit d = Compute (d, fun () -> Exit)

