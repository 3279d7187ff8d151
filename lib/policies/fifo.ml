module Sched_ops = Skyloft.Sched_ops
module Runqueue = Skyloft.Runqueue

(** First-Come-First-Served over a single global runqueue, run to
    completion: the classic dataplane policy (IX/ZygOS-style).  Never asks
    for preemption; ideal for light-tailed workloads, head-of-line-blocked
    on heavy tails (§2.1). *)

let create () : Sched_ops.ctor =
 fun view ->
  let q = Runqueue.create () in
  let enqueue task = Runqueue.push_tail q task in
  {
    Sched_ops.task_init = ignore;
    task_terminate = ignore;
    task_enqueue = (fun ~cpu:_ ~reason:_ task -> enqueue task);
    task_dequeue = (fun ~cpu:_ -> Runqueue.pop_head q);
    task_block = (fun ~cpu:_ _ -> ());
    task_wakeup =
      (fun ~waker_cpu task ->
        enqueue task;
        Sched_ops.wakeup_to_idle_or view ~fallback:waker_cpu);
    sched_timer_tick = (fun ~cpu:_ _ -> false);
    sched_balance = Sched_ops.no_balance;
    sched_migration_charge = Sched_ops.no_migration_charge;
    sched_idle_park = Sched_ops.park_after_grace;
  }
