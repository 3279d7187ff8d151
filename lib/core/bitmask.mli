(** Int words used as bit sets: the runtime's idle-unit mask and the
    work-stealing deques' non-empty mask. *)

val width : int
(** Bits used per word: 62, so that every word and every mask of its
    low bits is a non-negative int. *)

val lowest : int -> int
(** Index of the lowest set bit of a non-zero word. *)
