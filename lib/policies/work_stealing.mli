module Time = Skyloft_sim.Time

(** Work stealing, Shenango-style (§5.3), cooperative or preemptive.

    Each core owns a deque: the owner uses the head, thieves scan victims
    round-robin from a persisted per-thief cursor and steal from the tail;
    woken tasks land on the waking core's queue.  The preemptive variant
    is the paper's RocksDB punchline: without changing the policy, the
    user-space timer tick preempts any request over the quantum, breaking
    head-of-line blocking (Figure 8b).  [quantum = None] is plain
    cooperative work stealing (Memcached, Figure 8a).

    The two constructors share everything but the balance: {!create}
    steals one task per idle scan; {!steal_half} takes half the victim's
    deque, charges the steal, and brakes steal storms by parking. *)

val create : ?quantum:Time.t -> unit -> Skyloft.Sched_ops.ctor
(** Steal one task from the first non-empty victim's tail.  Stealing is
    free and idle cores always wait out the runtime's park grace. *)

type stats = {
  mutable steals : int;  (** successful steal-half grabs *)
  mutable stolen_tasks : int;  (** tasks migrated by those grabs (≥ steals) *)
  mutable steal_fails : int;
      (** full victim scans that found nothing (the steal-storm signal) *)
}

val steal_half : ?quantum:Time.t -> unit -> Skyloft.Sched_ops.ctor * stats
(** Steal half of the first non-empty victim's deque in one grab
    ({!Skyloft.Runqueue.steal_half}), run one task and keep the rest
    queued on the thief.  Every probed victim deque costs a remote
    cacheline and every migrated task a descriptor + stack transfer; the
    sum is the thief's [sched_migration_charge], paid on its next
    dispatch.  After two consecutive failed scans an idle core asks to
    park at once ([sched_idle_park]) instead of after the grace period.
    Run it on {!Skyloft.Percpu.create} with [~park], usually {!park}. *)

val park : Time.t * Time.t
(** Shenango's core parking, as [(idle_after, resume_cost)] for
    {!Skyloft.Percpu.create}'s [~park]: 5 µs of idleness returns a core
    to the kernel, and handing it back costs a Linux wakeup switch plus
    1 µs. *)

val register_metrics :
  stats -> ?labels:Skyloft_obs.Registry.labels -> Skyloft_obs.Registry.t -> unit
(** Register the steal counters as [skyloft_percpu_steals_total],
    [skyloft_percpu_stolen_tasks_total] and
    [skyloft_percpu_steal_fails_total]; pull-based like the runtimes'
    own metrics. *)
