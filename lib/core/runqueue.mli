(** FIFO deque of tasks, the building block for policy runqueues.

    Supports head/tail insertion (preempted tasks often go back to the head
    or tail depending on the policy) and O(1) push/pop at both ends, so
    work-stealing policies can steal from the tail while the owner pops
    the head.

    A queue is a ring of task pointers that grows by doubling: a push is
    one array store, and a pop clears its slot, so a task that left the
    queue is not kept alive by it.  {b A task is in at most one runqueue
    at a time} ({!Task.queued}): pushing a task that is already queued
    anywhere raises, and moving it means removing (or popping) it first.
    No operation allocates once the ring is large enough, apart from the
    [Some] box a [pop_*] or [peek_head] returns. *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

val push_tail : t -> Task.t -> unit
(** @raise Invalid_argument if the task is already in a runqueue, this one
    or any other. *)

val push_head : t -> Task.t -> unit
(** @raise Invalid_argument as {!push_tail}. *)

val pop_head : t -> Task.t option
val pop_tail : t -> Task.t option

val steal_half : from:t -> into:t -> int
(** Move the tail half of [from] (rounded up, so a single queued task is
    stealable) to the tail of [into], one task at a time, tail first;
    returns the number moved.  This is the steal-half grab of a
    work-stealing deque: the thief takes the victim's oldest tasks in one
    operation and will then pop them oldest-first from its own head. *)

val peek_head : t -> Task.t option

val remove : t -> Task.t -> bool
(** [remove q task] takes [task] out of [q]; [false] if it was not in [q]
    (it may be in another runqueue, which is left alone).  O(n): the
    tasks behind it move up one slot. *)

val iter : (Task.t -> unit) -> t -> unit
(** Head to tail.  [f] may remove the task it is given. *)

val to_list : t -> Task.t list
