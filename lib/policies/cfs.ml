module Time = Skyloft_sim.Time
module Task = Skyloft.Task
module Sched_ops = Skyloft.Sched_ops
module Runqueue = Skyloft.Runqueue

(** Skyloft CFS: per-CPU fair scheduling by virtual runtime (§5.1).

    The task's vruntime lives in [policy_f1].  Each core keeps its own
    runqueue and a monotonic min_vruntime; [task_dequeue] picks the
    smallest vruntime.  The slice is [max min_granularity
    (sched_latency / nr_running)], checked on every user-space timer tick —
    at Skyloft's 100 kHz tick the effective granularity is 10 µs where
    Linux is capped at 1 ms (Table 5, Figure 5).  Woken sleepers receive
    the gentle credit of half a [sched_latency], exactly like the kernel. *)

type config = { min_granularity : Time.t; sched_latency : Time.t }

let default_config =
  { min_granularity = Time.of_us_float 12.5; sched_latency = Time.us 50 }

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
    | None -> invalid_arg "cfs: unmanaged cpu"
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
  let pick_min cpu =
    let best = ref None in
    Runqueue.iter
      (fun task ->
        match !best with
        | None -> best := Some task
        | Some b -> if task.Task.policy_f1 < b.Task.policy_f1 then best := Some task)
      (q cpu);
    !best
  in
  let least_loaded () =
    Array.fold_left
      (fun best core ->
        if Runqueue.length (q core) < Runqueue.length (q best) then core else best)
      view.cores.(0) view.cores
  in
  {
    Sched_ops.policy_name = "cfs";
    task_init = (fun task -> task.Task.policy_f1 <- get_min task.Task.last_core);
    task_terminate = ignore;
    task_enqueue =
      (fun ~cpu ~reason task ->
        (match reason with
        | Sched_ops.Enq_preempted | Sched_ops.Enq_yielded -> charge cpu task
        | Sched_ops.Enq_new ->
            task.Task.policy_f1 <- Float.max task.Task.policy_f1 (get_min cpu)
        | Sched_ops.Enq_woken -> ());
        Runqueue.push_tail (q cpu) task);
    task_dequeue =
      (fun ~cpu ->
        match pick_min cpu with
        | None -> None
        | Some task ->
            ignore (Runqueue.remove (q cpu) task);
            bump_min cpu task.Task.policy_f1;
            Some task);
    task_block = (fun ~cpu task -> charge cpu task);
    task_wakeup =
      (fun ~waker_cpu:_ task ->
        let target =
          match view.Sched_ops.pick_idle () with
          | Some core -> core
          | None -> least_loaded ()
        in
        (* Migrating runqueues changes the virtual-time basis. *)
        if Hashtbl.mem min_v task.Task.last_core && task.Task.last_core <> target then
          task.Task.policy_f1 <-
            task.Task.policy_f1 -. get_min task.Task.last_core +. get_min target;
        task.Task.last_core <- target;
        (* Gentle sleeper credit: place at most half a latency behind. *)
        let credit = float_of_int config.sched_latency /. 2.0 in
        task.Task.policy_f1 <- Float.max task.Task.policy_f1 (get_min target -. credit);
        Runqueue.push_tail (q target) task;
        target);
    sched_timer_tick =
      (fun ~cpu task ->
        let nr = Runqueue.length (q cpu) + 1 in
        let slice = max config.min_granularity (config.sched_latency / nr) in
        (not (Runqueue.is_empty (q cpu))) && view.now () - task.Task.run_start >= slice);
    sched_balance =
      (fun ~cpu ->
        let stolen = ref None in
        Array.iter
          (fun core ->
            if !stolen = None && core <> cpu then
              match pick_min core with
              | Some task ->
                  ignore (Runqueue.remove (q core) task);
                  (* renormalise onto the stealing core's clock *)
                  task.Task.policy_f1 <-
                    task.Task.policy_f1 -. get_min core +. get_min cpu;
                  stolen := Some task
              | _ -> ())
          view.cores;
        !stolen);
    sched_migration_charge = Sched_ops.no_migration_charge;
    sched_idle_park = Sched_ops.park_after_grace;
  }
