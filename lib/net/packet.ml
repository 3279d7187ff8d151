module Time = Skyloft_sim.Time

(** Network requests as the server sees them: enough header to steer
    (flow hash), plus workload metadata (arrival, service demand, kind).
    Payload bytes are irrelevant to scheduling and are not modelled. *)

type t = {
  arrival : Time.t;  (** when the packet reached the NIC *)
  service : Time.t;  (** CPU demand of handling the request *)
  flow : int;  (** flow identifier, input to RSS *)
  kind : string;  (** request type: "get", "set", "scan", ... *)
}

let create ~arrival ~service ~flow ~kind = { arrival; service; flow; kind }
