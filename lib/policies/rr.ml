module Time = Skyloft_sim.Time
module Task = Skyloft.Task
module Sched_ops = Skyloft.Sched_ops
module Runqueue = Skyloft.Runqueue

(** Per-CPU Round-Robin with time slicing — the Skyloft counterpart of
    SCHED_RR (§5.1).  Each core owns a FIFO runqueue; the timer tick
    preempts the running task once its slice is used, sending it to the
    tail of its local queue.  [slice = None] gives Skyloft-FIFO from
    Figure 6: an infinite slice, so the tick never preempts.  The
    per-core table and the wakeup placement are the fair policy's. *)

let create ?slice () : Sched_ops.ctor =
 fun view ->
  let queues = Fair_percpu.table view Runqueue.create in
  let q cpu = queues.(Fair_percpu.slot view cpu) in
  {
    Sched_ops.task_init = ignore;
    task_terminate = ignore;
    task_enqueue = (fun ~cpu ~reason:_ task -> Runqueue.push_tail (q cpu) task);
    task_dequeue = (fun ~cpu -> Runqueue.pop_head (q cpu));
    task_block = (fun ~cpu:_ _ -> ());
    task_wakeup =
      (fun ~waker_cpu:_ task ->
        let target = Fair_percpu.place view queues Runqueue.length in
        Runqueue.push_tail (q target) task;
        target);
    sched_timer_tick =
      (fun ~cpu task ->
        match slice with
        | None -> false
        | Some slice ->
            (not (Runqueue.is_empty (q cpu))) && view.now () - task.Task.run_start >= slice);
    sched_balance =
      (fun ~cpu ->
        (* the tail of the first other core, in order, with one *)
        let rec scan i =
          if i = Array.length queues then None
          else if view.cores.(i) = cpu then scan (i + 1)
          else
            match Runqueue.pop_tail queues.(i) with
            | Some _ as stolen -> stolen
            | None -> scan (i + 1)
        in
        scan 0);
    sched_migration_charge = Sched_ops.no_migration_charge;
    sched_idle_park = Sched_ops.park_after_grace;
  }
