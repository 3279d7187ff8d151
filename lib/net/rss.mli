(** Receive Side Scaling: a deterministic hash from flow id to receive
    queue (§3.5).  A multiplicative hash stands in for Toeplitz: what
    matters is a deterministic, roughly uniform flow-to-queue mapping. *)

val queue_of_flow : queues:int -> int -> int
(** Queue index in [\[0, queues)] for the flow.  [queues] must be
    positive. *)
