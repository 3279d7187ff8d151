(** Skyloft-Shinjuku: the centralized preemptive policy of §5.2 — one
    global FIFO queue owned by the dispatcher; over-quantum requests are
    preempted by user IPI and returned to the tail (processor sharing).
    The quantum lives in the serial dispatcher ({!Skyloft.Hybrid} created
    with [~adaptive:false]); the policy is just the queue, which is why it is an order of magnitude smaller than the
    original Shinjuku system (Table 4). *)

val create : unit -> Skyloft.Sched_ops.ctor
