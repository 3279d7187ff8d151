module Time = Skyloft_sim.Time
module Task = Skyloft.Task
module Sched_ops = Skyloft.Sched_ops
module Runqueue = Skyloft.Runqueue

(** Per-CPU Round-Robin with time slicing — the Skyloft counterpart of
    SCHED_RR (§5.1).  Each core owns a FIFO runqueue; the timer tick
    preempts the running task once its slice is used, sending it to the
    tail of its local queue.  [slice = None] gives Skyloft-FIFO from
    Figure 6: an infinite slice, so the tick never preempts. *)

let create ?slice () : Sched_ops.ctor =
 fun view ->
  let queues = Hashtbl.create 32 in
  Array.iter (fun core -> Hashtbl.replace queues core (Runqueue.create ())) view.cores;
  let q cpu =
    match Hashtbl.find_opt queues cpu with
    | Some q -> q
    | None -> invalid_arg "rr: unmanaged cpu"
  in
  let least_loaded () =
    Array.fold_left
      (fun best core ->
        if Runqueue.length (q core) < Runqueue.length (q best) then core else best)
      view.cores.(0) view.cores
  in
  {
    Sched_ops.policy_name =
      (match slice with Some _ -> "rr" | None -> "fifo-percpu");
    task_init = ignore;
    task_terminate = ignore;
    task_enqueue = (fun ~cpu ~reason:_ task -> Runqueue.push_tail (q cpu) task);
    task_dequeue = (fun ~cpu -> Runqueue.pop_head (q cpu));
    task_block = (fun ~cpu:_ _ -> ());
    task_wakeup =
      (fun ~waker_cpu:_ task ->
        let target =
          match view.Sched_ops.pick_idle () with
          | Some core -> core
          | None -> least_loaded ()
        in
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
        let stolen = ref None in
        Array.iter
          (fun core ->
            if !stolen = None && core <> cpu then stolen := Runqueue.pop_tail (q core))
          view.cores;
        !stolen);
    sched_migration_charge = Sched_ops.no_migration_charge;
    sched_idle_park = Sched_ops.park_after_grace;
  }
