(** Bounded receive ring between the NIC and a worker core (§3.5).
    Overflow drops the packet, like a real rx ring under overload. *)

type t

val create : capacity:int -> t
val is_empty : t -> bool

val push : t -> Packet.t -> bool
(** [false] (and the drop counted) when the ring is full. *)

val pop : t -> Packet.t option
val dropped : t -> int
