module Time = Skyloft_sim.Time

(** Skyloft CFS: per-CPU fair scheduling by virtual runtime (§5.1).

    The task's vruntime lives in [policy_f1]; each core keeps a runqueue
    and a monotonic min_vruntime; dequeue picks the smallest vruntime.
    The slice is [max min_granularity (sched_latency / nr_running)],
    checked on every user-space timer tick — at Skyloft's 100 kHz the
    effective granularity is 10 µs where Linux is capped at 1 ms
    (Table 5, Figure 5).  Woken sleepers receive the gentle credit of
    half a [sched_latency], like the kernel. *)

type config = { min_granularity : Time.t; sched_latency : Time.t }

val create : ?config:config -> unit -> Skyloft.Sched_ops.ctor
(** [config] defaults to Table 5: min_granularity 12.5 µs, sched_latency
    50 µs. *)
