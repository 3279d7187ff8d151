module Time = Skyloft_sim.Time
module Coro = Skyloft_sim.Coro
module Machine = Skyloft_hw.Machine
module Histogram = Skyloft_stats.Histogram

(** Simulated Linux scheduler.

    A per-CPU tick-driven scheduler over the simulated machine, implementing
    the three kernel policies the paper compares against (§5.1): CFS
    (vruntime fair scheduling with [min_granularity]/[sched_latency] and
    gentle sleeper credit), SCHED_RR (fixed time slices), and EEVDF
    (lag-preserving virtual deadlines, Linux >= 6.6).  Preemption decisions
    happen at wakeups and on the CONFIG_HZ timer tick — the tick resolution
    is exactly what caps Linux's wakeup latency in Figure 5, since the
    maximum configurable rate is 1000 Hz.

    Threads are {!Coro} bodies; the scheduler charges context-switch costs,
    tick interrupt overhead and wakeup paths from {!Skyloft_hw.Costs}. *)

type policy =
  | Cfs of {
      hz : int;
      min_granularity : Time.t;
      sched_latency : Time.t;
      wakeup_granularity : Time.t;
    }
  | Rr of { hz : int; slice : Time.t }
  | Eevdf of { hz : int; base_slice : Time.t }

val cfs_default : policy
(** HZ=250, min_granularity=3 ms, sched_latency=24 ms (Table 5). *)

val cfs_tuned : policy
(** HZ=1000, min_granularity=12.5 µs, sched_latency=50 µs (Table 5). *)

val rr_default : policy
(** HZ=250, slice=100 ms (Table 5). *)

val eevdf_default : policy
(** HZ=1000, base_slice=3 ms (Table 5). *)

val eevdf_tuned : policy
(** HZ=1000, base_slice=12.5 µs (Table 5). *)

type t

val create : Machine.t -> policy -> cores:int list -> t
(** Manage the given cores: install tick timers and interrupt handlers on
    them.  Threads spawned into this scheduler only run on these cores. *)

val spawn : t -> ?weight:int -> Coro.t -> Kthread.t
(** Create a runnable thread and enqueue it (dispatching immediately if an
    idle managed core is available).  [weight] is the CFS load weight
    (1024 = nice 0; 15 = nice 19 / SCHED_BATCH-ish). *)

val wakeup : t -> Kthread.t -> unit
(** try_to_wake_up: make a blocked thread runnable, select a CPU, and apply
    the policy's wakeup-preemption rule.  Waking a non-blocked thread sets
    its [pending_wake] flag (futex semantics). *)

val wakeup_hist : t -> Histogram.t
(** Wakeup-to-first-instruction latency of every wakeup processed. *)

val alive : t -> int
(** Threads not yet exited. *)
