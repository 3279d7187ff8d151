module Time = Skyloft_sim.Time
module Task = Skyloft.Task
module Sched_ops = Skyloft.Sched_ops
module Fair = Skyloft_kernel.Fair

(* The Skyloft ports of Linux's fair class (§5.1), on the kernel models'
   own rules and runqueue ({!Skyloft_kernel.Fair}).  Task fields:
   [policy_f1] vruntime, [policy_f2] EEVDF deadline, [policy_i] EEVDF
   lag in ns (captured at block time, truncated to an int).  Skyloft
   charges unweighted time and its EEVDF average leaves the running task
   out. *)

(* ---- the per-core table and wakeup placement, shared with Rr ---- *)

let table (view : Sched_ops.view) create = Array.map (fun _ -> create ()) view.cores

let slot (view : Sched_ops.view) cpu =
  let i = Sched_ops.index_of view cpu in
  if i >= 0 then i else invalid_arg "per-core policy: unmanaged cpu"

(* An idle core when there is one, else the one with the shortest queue
   (the first on ties). *)
let place (view : Sched_ops.view) queues length =
  match view.pick_idle () with
  | Some core -> core
  | None ->
      let best = ref 0 in
      for i = 1 to Array.length queues - 1 do
        if length queues.(i) < length queues.(!best) then best := i
      done;
      view.cores.(!best)

(* ---- the fair policy ---- *)

(* Table 5: the Skyloft rows tick at 100 kHz, so CFS's effective
   granularity is 10 µs where Linux is capped at 1 ms (Figure 5). *)
let min_granularity = Time.of_us_float 12.5
let sched_latency = Time.us 50
let base_slice = Time.of_us_float 12.5

type cls = Cfs | Eevdf

let create cls : Sched_ops.ctor =
 fun view ->
  let queues : Task.t Fair.t array = table view Fair.create in
  let q cpu = queues.(slot view cpu) in
  let set_deadline task =
    task.Task.policy_f2 <- Fair.deadline ~base_slice task.Task.policy_f1
  in
  (* Account the time the task ran since it started, then advance the
     core's min_vruntime by the update_curr floor. *)
  let charge rq task =
    let ran = view.now () - task.Task.run_start in
    if ran > 0 then
      task.Task.policy_f1 <- Fair.charge ~weight:Fair.nice_0 task.Task.policy_f1 ran;
    Fair.update_min rq ~curr:task.Task.policy_f1
  in
  let push rq task =
    Fair.add rq ~key:task.Task.policy_f1 ~vruntime:task.Task.policy_f1
      ~deadline:task.Task.policy_f2 task
  in
  let pop rq =
    match cls with
    | Cfs -> Fair.pop_min_key rq
    | Eevdf -> Fair.pop_eevdf rq ~avg:(Fair.avg_vruntime rq ~curr:None)
  in
  {
    Sched_ops.task_init =
      (fun task ->
        task.Task.policy_f1 <- Fair.min_vruntime (q task.Task.last_core);
        if cls = Eevdf then set_deadline task);
    task_terminate = ignore;
    task_enqueue =
      (fun ~cpu ~reason task ->
        let rq = q cpu in
        (match reason with
        | Sched_ops.Enq_preempted | Sched_ops.Enq_yielded ->
            charge rq task;
            (* EEVDF past its deadline: grant a new request interval *)
            if cls = Eevdf && task.Task.policy_f1 >= task.Task.policy_f2 then
              set_deadline task
        | Sched_ops.Enq_new ->
            task.Task.policy_f1 <- Float.max task.Task.policy_f1 (Fair.min_vruntime rq);
            if cls = Eevdf then set_deadline task);
        push rq task);
    task_dequeue =
      (fun ~cpu ->
        let rq = q cpu in
        match pop rq with
        | Some task as picked ->
            Fair.advance_min rq task.Task.policy_f1;
            picked
        | None -> None);
    task_block =
      (fun ~cpu task ->
        let rq = q cpu in
        charge rq task;
        if cls = Eevdf then
          task.Task.policy_i <-
            int_of_float
              (Fair.clamp_lag ~base_slice
                 (Fair.avg_vruntime rq ~curr:None -. task.Task.policy_f1)));
    task_wakeup =
      (fun ~waker_cpu:_ task ->
        let target = place view queues Fair.length in
        let rq = q target in
        (match cls with
        | Cfs ->
            let last = Sched_ops.index_of view task.Task.last_core in
            if last >= 0 && task.Task.last_core <> target then
              task.Task.policy_f1 <-
                Fair.migrate ~src:queues.(last) ~dst:rq task.Task.policy_f1;
            task.Task.policy_f1 <- Fair.place_sleeper rq ~sched_latency task.Task.policy_f1
        | Eevdf ->
            task.Task.policy_f1 <-
              Fair.avg_vruntime rq ~curr:None -. float_of_int task.Task.policy_i;
            set_deadline task);
        task.Task.last_core <- target;
        push rq task;
        target);
    sched_timer_tick =
      (fun ~cpu task ->
        let rq = q cpu in
        let slice =
          match cls with
          | Cfs ->
              Fair.cfs_slice ~min_granularity ~sched_latency ~nr:(Fair.length rq + 1)
          | Eevdf -> base_slice
        in
        (not (Fair.is_empty rq)) && view.now () - task.Task.run_start >= slice);
    sched_balance =
      (fun ~cpu ->
        (* the first other core, in order, with a task to pick *)
        let rec scan i =
          if i = Array.length queues then None
          else if view.cores.(i) = cpu then scan (i + 1)
          else
            match pop queues.(i) with
            | Some task as stolen ->
                task.Task.policy_f1 <-
                  Fair.migrate ~src:queues.(i) ~dst:(q cpu) task.Task.policy_f1;
                if cls = Eevdf then set_deadline task;
                stolen
            | None -> scan (i + 1)
        in
        scan 0);
    sched_migration_charge = Sched_ops.no_migration_charge;
    sched_idle_park = Sched_ops.park_after_grace;
  }

let cfs () = create Cfs
let eevdf () = create Eevdf
