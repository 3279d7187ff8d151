module Sched_ops = Skyloft.Sched_ops
module Runqueue = Skyloft.Runqueue

(** Skyloft-Shinjuku: the centralized preemptive policy of §5.2.

    One global FIFO queue owned by the dispatcher.  Requests run until they
    either finish or exceed the preemption quantum, in which case the
    dispatcher preempts them with a user IPI and returns them to the {e
    tail} of the queue — approximating processor sharing, which is what
    keeps short requests ahead of the occasional 10 ms monster.  The
    quantum lives in the serial-dispatcher runtime ({!Skyloft.Hybrid}
    created with [~adaptive:false]); this policy only has to describe the queue, which is why it is an
    order of magnitude smaller than the original Shinjuku system
    (Table 4). *)

let create () : Sched_ops.ctor =
 fun view ->
  let q = Runqueue.create () in
  {
    Sched_ops.policy_name = "shinjuku";
    task_init = ignore;
    task_terminate = ignore;
    task_enqueue = (fun ~cpu:_ ~reason:_ task -> Runqueue.push_tail q task);
    task_dequeue = (fun ~cpu:_ -> Runqueue.pop_head q);
    task_block = (fun ~cpu:_ _ -> ());
    task_wakeup =
      (fun ~waker_cpu task ->
        Runqueue.push_tail q task;
        Sched_ops.wakeup_to_idle_or view ~fallback:waker_cpu);
    sched_timer_tick = (fun ~cpu:_ _ -> false);
    sched_balance = Sched_ops.no_balance;
    sched_migration_charge = Sched_ops.no_migration_charge;
    sched_idle_park = Sched_ops.park_after_grace;
  }
