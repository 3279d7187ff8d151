module Time = Skyloft_sim.Time

(** Skyloft-Shinjuku-Shenango: the multi-application centralized policy
    of §5.2.  The LC side is the Shinjuku global queue; Shenango's core
    allocation (grant idle cores to a batch app, reclaim on the 5 µs
    congestion check) lives in the centralized runtime's [be_reclaim].
    This policy additionally tracks queueing delay, Shenango's
    congestion signal. *)

type stats = { mutable max_queue_delay : Time.t }
(** The longest queueing delay a dequeue has seen. *)

val create : unit -> Skyloft.Sched_ops.ctor * stats
