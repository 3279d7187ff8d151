module Time = Skyloft_sim.Time
module Sched_ops = Skyloft.Sched_ops
module Runqueue = Skyloft.Runqueue
module Task = Skyloft.Task

(** Skyloft-Shinjuku-Shenango: the multi-application centralized policy of
    §5.2 ("Multiple workloads").

    The latency-critical side is the Shinjuku global queue; on top of it,
    Shenango's core-allocation strategy grants idle worker cores to a
    co-located batch application and reclaims them when the dispatcher's
    periodic congestion check (default every 5 µs) finds latency-critical
    requests waiting.  The reclaim machinery lives in the centralized
    runtime ([?be_reclaim]); the policy additionally tracks queueing delay
    so the congestion signal matches Shenango's (oldest queued request,
    not just queue emptiness). *)

type stats = { mutable max_queue_delay : Time.t }

let create () : Sched_ops.ctor * stats =
  let stats = { max_queue_delay = 0 } in
  let ctor : Sched_ops.ctor =
   fun view ->
    let q = Runqueue.create () in
    let note_delay () =
      match Runqueue.peek_head q with
      | Some task ->
          let delay = view.now () - task.Task.enqueue_time in
          if delay > stats.max_queue_delay then stats.max_queue_delay <- delay
      | None -> ()
    in
    {
      Sched_ops.policy_name = "shinjuku-shenango";
      task_init = ignore;
      task_terminate = ignore;
      task_enqueue =
        (fun ~cpu:_ ~reason:_ task ->
          task.Task.enqueue_time <- view.now ();
          Runqueue.push_tail q task);
      task_dequeue =
        (fun ~cpu:_ ->
          note_delay ();
          Runqueue.pop_head q);
      task_block = (fun ~cpu:_ _ -> ());
      task_wakeup =
        (fun ~waker_cpu task ->
          task.Task.enqueue_time <- view.now ();
          Runqueue.push_tail q task;
          Sched_ops.wakeup_to_idle_or view ~fallback:waker_cpu);
      sched_timer_tick = (fun ~cpu:_ _ -> false);
      sched_balance = Sched_ops.no_balance;
      sched_migration_charge = Sched_ops.no_migration_charge;
      sched_idle_park = Sched_ops.park_after_grace;
    }
  in
  (ctor, stats)
