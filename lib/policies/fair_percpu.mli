(** Skyloft's ports of Linux's fair class (§5.1): per-CPU CFS and EEVDF
    on {!Skyloft_kernel.Fair}, the rules and ordered runqueue the Linux
    models use.

    - {!cfs}: the smallest vruntime runs; the slice is [max
      min_granularity (sched_latency / nr_running)], checked on every
      user-space timer tick, and woken sleepers get the gentle credit of
      half a [sched_latency].
    - {!eevdf}: a task is eligible when its vruntime is at most the
      queue's average; among eligible tasks the earliest virtual deadline
      (vruntime + base_slice) runs, and blocking keeps the lag, clamped to
      one slice.

    Parameters are Table 5's: min_granularity 12.5 µs, sched_latency
    50 µs, base_slice 12.5 µs.  Each core keeps its own queue and
    min_vruntime; a woken task goes to an idle core, else to the core
    with the shortest queue; an idle core steals the pick of the first
    other core with one. *)

val cfs : unit -> Skyloft.Sched_ops.ctor
val eevdf : unit -> Skyloft.Sched_ops.ctor

(** {1 Shared with the other per-core policies} *)

val table : Skyloft.Sched_ops.view -> (unit -> 'q) -> 'q array
(** One queue per managed core, indexed by {!Skyloft.Sched_ops.index_of}. *)

val slot : Skyloft.Sched_ops.view -> int -> int
(** [Sched_ops.index_of view cpu].
    @raise Invalid_argument for a core the scheduler does not manage. *)

val place : Skyloft.Sched_ops.view -> 'q array -> ('q -> int) -> int
(** Wakeup placement: the first idle core, else the core whose queue is
    shortest by the given length (the first on ties). *)
