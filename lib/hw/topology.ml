type t = { sockets : int; cores_per_socket : int }

let create ~sockets ~cores_per_socket =
  if sockets <= 0 || cores_per_socket <= 0 then
    invalid_arg "Topology.create: sockets and cores_per_socket must be positive";
  { sockets; cores_per_socket }

let paper_server = { sockets = 2; cores_per_socket = 24 }
let total_cores t = t.sockets * t.cores_per_socket

let valid_core t core = core >= 0 && core < total_cores t

let socket_of_core t core =
  if not (valid_core t core) then invalid_arg "Topology.socket_of_core: bad core id";
  core / t.cores_per_socket

let cross_numa t a b = socket_of_core t a <> socket_of_core t b
