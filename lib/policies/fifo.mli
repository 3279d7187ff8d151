(** First-Come-First-Served over a single global runqueue, run to
    completion: the classic dataplane policy (IX/ZygOS-style, §2.1).
    Never requests preemption: ideal for light-tailed workloads,
    head-of-line blocked on heavy tails.

    It is also Skyloft-Shinjuku and Skyloft-Shinjuku-Shenango (§5.2),
    since the preemption quantum lives in the serial dispatcher
    ({!Skyloft.Hybrid} pinned with [~adaptive:false]) and core allocation
    in {!Skyloft_alloc.Allocator}. *)

val create : unit -> Skyloft.Sched_ops.ctor
