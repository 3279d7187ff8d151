(** Bit tricks on immediate ints, shared by the histogram's bucket index
    and the UINTR recognition walk. *)

val msb : int -> int
(** Index of the most significant set bit of [v > 0], by a 32/16/8/4/2/1
    shift ladder (no loop, no allocation). *)
