module Time = Skyloft_sim.Time

(** Network requests as the server sees them: enough header to steer
    (flow hash) plus workload metadata.  Payload bytes are irrelevant to
    scheduling and are not modelled. *)

type t = {
  arrival : Time.t;  (** when the packet reached the NIC *)
  service : Time.t;  (** CPU demand of handling the request *)
  flow : int;  (** flow identifier, input to RSS *)
  kind : string;  (** request type: "get", "set", "scan", ... *)
}

val create : arrival:Time.t -> service:Time.t -> flow:int -> kind:string -> t
