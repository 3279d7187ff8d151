(** Per-core deques for work-stealing policies: one {!Runqueue} per
    managed core, addressed only by the core's position (a policy maps a
    core id to it with {!Sched_ops.index_of}), and the
    round-robin victim scan over them.

    Every mutation keeps a word of non-empty bits (one per deque, for up
    to {!Bitmask.width} deques), so {!victim} finds the first non-empty
    deque from the thief's cursor with a few bit operations yet reports
    the same victim, {!cursor} and {!probes} as probing deque after
    deque — which is what it does past {!Bitmask.width} deques.  The type
    is abstract, so no other module can mutate a queue behind the word. *)

type t

val probes : t -> int
(** Victim deques the last {!victim} scan looked at. *)

val cursor : t -> int -> int
(** A thief's scan start: the position after its last hit, [-1] before
    its first, when the scan starts just after the thief. *)

val create : int -> t
(** [create n]: [n] empty deques, at positions [0] to [n - 1]. *)

val is_empty : t -> int -> bool
val push_head : t -> int -> Task.t -> unit
val push_tail : t -> int -> Task.t -> unit
val pop_head : t -> int -> Task.t option
val pop_tail : t -> int -> Task.t option

val steal_half : t -> from:int -> into:int -> int
(** {!Runqueue.steal_half} between two positions. *)

val victim : t -> self:int -> int
(** The first non-empty deque other than [self], scanning round-robin
    from [self]'s cursor; [-1] if there is none.  A hit moves the cursor
    past it.  [probes] becomes the number of deques the scan looked at:
    every one from the start up to the hit, or all the others on a miss,
    never [self]. *)
