module Time = Skyloft_sim.Time
module Task = Skyloft.Task
module Sched_ops = Skyloft.Sched_ops
module Runqueue = Skyloft.Runqueue

(** Skyloft EEVDF: Earliest Eligible Virtual Deadline First (§5.1).

    Unlike CFS's heuristics, EEVDF is defined by two rules (Stoica &
    Abdel-Wahab; Linux >= 6.6): a task is {e eligible} when it has received
    less service than its fair share (vruntime <= average vruntime), and
    among eligible tasks the one with the earliest {e virtual deadline}
    (vruntime at enqueue + base_slice) runs.  Blocking preserves {e lag} —
    the service credit/debit — so sleepers resume exactly where fairness
    says they should, with the lag clamped to one slice.

    Task fields: [policy_f1] = vruntime, [policy_f2] = virtual deadline,
    [policy_i] = lag in ns (captured at block time). *)

type config = { base_slice : Time.t }

let default_config = { base_slice = Time.of_us_float 12.5 }

let create ?(config = default_config) () : Sched_ops.ctor =
 fun view ->
  let queues = Hashtbl.create 32 in
  let min_v = Hashtbl.create 32 in
  Array.iter
    (fun core ->
      Hashtbl.replace queues core (Runqueue.create ());
      Hashtbl.replace min_v core 0.0)
    view.cores;
  let q cpu =
    match Hashtbl.find_opt queues cpu with
    | Some q -> q
    | None -> invalid_arg "eevdf: unmanaged cpu"
  in
  let get_min cpu = Hashtbl.find min_v cpu in
  let bump_min cpu v = if v > get_min cpu then Hashtbl.replace min_v cpu v in
  (* Account the CPU time a task consumed since it started running, and
     advance the core's min_vruntime like the kernel's update_curr does:
     max(min_vruntime, min(curr, leftmost)). *)
  let charge cpu task =
    let ran = view.now () - task.Task.run_start in
    if ran > 0 then task.Task.policy_f1 <- task.Task.policy_f1 +. float_of_int ran;
    let leftmost = ref task.Task.policy_f1 in
    Runqueue.iter
      (fun t -> if t.Task.policy_f1 < !leftmost then leftmost := t.Task.policy_f1)
      (q cpu);
    bump_min cpu !leftmost
  in
  let avg_vruntime cpu =
    let sum = ref 0.0 and n = ref 0 in
    Runqueue.iter
      (fun task ->
        sum := !sum +. task.Task.policy_f1;
        incr n)
      (q cpu);
    if !n = 0 then get_min cpu else !sum /. float_of_int !n
  in
  let set_deadline task =
    task.Task.policy_f2 <- task.Task.policy_f1 +. float_of_int config.base_slice
  in
  let pick cpu =
    let avg = avg_vruntime cpu in
    let best_eligible = ref None and best_any = ref None in
    let better cand = function
      | None -> true
      | Some b -> cand.Task.policy_f2 < b.Task.policy_f2
    in
    Runqueue.iter
      (fun task ->
        if better task !best_any then best_any := Some task;
        if task.Task.policy_f1 <= avg && better task !best_eligible then
          best_eligible := Some task)
      (q cpu);
    match !best_eligible with Some _ as r -> r | None -> !best_any
  in
  let least_loaded () =
    Array.fold_left
      (fun best core ->
        if Runqueue.length (q core) < Runqueue.length (q best) then core else best)
      view.cores.(0) view.cores
  in
  {
    Sched_ops.policy_name = "eevdf";
    task_init =
      (fun task ->
        task.Task.policy_f1 <- get_min task.Task.last_core;
        set_deadline task);
    task_terminate = ignore;
    task_enqueue =
      (fun ~cpu ~reason task ->
        (match reason with
        | Sched_ops.Enq_preempted | Sched_ops.Enq_yielded ->
            charge cpu task;
            (* past its deadline: grant a new request interval *)
            if task.Task.policy_f1 >= task.Task.policy_f2 then set_deadline task
        | Sched_ops.Enq_new ->
            task.Task.policy_f1 <- Float.max task.Task.policy_f1 (get_min cpu);
            set_deadline task
        | Sched_ops.Enq_woken -> ());
        Runqueue.push_tail (q cpu) task);
    task_dequeue =
      (fun ~cpu ->
        match pick cpu with
        | None -> None
        | Some task ->
            ignore (Runqueue.remove (q cpu) task);
            bump_min cpu task.Task.policy_f1;
            Some task);
    task_block =
      (fun ~cpu task ->
        charge cpu task;
        (* lag: how far behind (positive) or ahead (negative) of the fair
           share this task is, clamped to one slice *)
        let lag = avg_vruntime cpu -. task.Task.policy_f1 in
        let cap = float_of_int config.base_slice in
        task.Task.policy_i <- int_of_float (Float.max (-.cap) (Float.min cap lag)));
    task_wakeup =
      (fun ~waker_cpu:_ task ->
        let target =
          match view.Sched_ops.pick_idle () with
          | Some core -> core
          | None -> least_loaded ()
        in
        task.Task.policy_f1 <- avg_vruntime target -. float_of_int task.Task.policy_i;
        set_deadline task;
        task.Task.last_core <- target;
        Runqueue.push_tail (q target) task;
        target);
    sched_timer_tick =
      (fun ~cpu task ->
        if Runqueue.is_empty (q cpu) then false
        else if view.now () - task.Task.run_start >= config.base_slice then true
        else false);
    sched_balance =
      (fun ~cpu ->
        let stolen = ref None in
        Array.iter
          (fun core ->
            if !stolen = None && core <> cpu then
              match pick core with
              | Some task ->
                  ignore (Runqueue.remove (q core) task);
                  task.Task.policy_f1 <-
                    task.Task.policy_f1 -. get_min core +. get_min cpu;
                  set_deadline task;
                  stolen := Some task
              | None -> ())
          view.cores;
        !stolen);
    sched_migration_charge = Sched_ops.no_migration_charge;
    sched_idle_park = Sched_ops.park_after_grace;
  }
