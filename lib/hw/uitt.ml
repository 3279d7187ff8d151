type entry = { ctx : Machine.uintr_ctx; uvec : int }

type t = { machine : Machine.t; entries : entry option array }

let create machine ~size =
  if size <= 0 then invalid_arg "Uitt.create: size must be positive";
  { machine; entries = Array.make size None }

let check t i =
  if i < 0 || i >= Array.length t.entries then invalid_arg "Uitt: index out of range"

let set t i ctx ~uvec =
  check t i;
  t.entries.(i) <- Some { ctx; uvec }

let clear t i =
  check t i;
  t.entries.(i) <- None

let senduipi t ~src_core i =
  check t i;
  match t.entries.(i) with
  | None -> invalid_arg "Uitt.senduipi: empty UITT entry (#GP)"
  | Some { ctx; uvec } -> Machine.senduipi t.machine ~src_core ctx ~uvec
