module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Eventq = Skyloft_sim.Eventq
module Machine = Skyloft_hw.Machine
module Costs = Skyloft_hw.Costs
module Vectors = Skyloft_hw.Vectors
module Kmod = Skyloft_kernel.Kmod
module Trace = Skyloft_stats.Trace
module Allocator = Skyloft_alloc.Allocator
module Registry = Skyloft_obs.Registry
module Rc = Runtime_core

(* The hybrid runtime is Runtime_core plus a DISPATCH substrate that
   changes shape at runtime: the centralized serial dispatcher while the
   shared queue is shallow, per-core preemption timers once it is deep.
   Created with [~adaptive:false] it never leaves the serial dispatcher:
   that pinned shape is the centralized runtime (Figure 2b), and with a
   different {!mechanism} cost vector the ghOSt and Shinjuku
   comparators. *)

type mechanism = {
  mech_name : string;
  dispatch_cost : Time.t;
  preempt_send : Time.t;
  preempt_delivery : Time.t;
  preempt_receive : Time.t;
  worker_switch : Time.t;
}

let skyloft_mechanism =
  {
    mech_name = "Skyloft";
    dispatch_cost = 100;
    preempt_send = Costs.uipi_send_ns ~cross_numa:false;
    preempt_delivery = Costs.uipi_delivery_ns ~cross_numa:false;
    preempt_receive = Costs.uipi_receive_ns ~cross_numa:false + Costs.uthread_yield_ns;
    worker_switch = Costs.uthread_yield_ns;
  }

(* Dune posted interrupts avoid kernel entries on the sender but trap into
   the guest on delivery; measured overheads in the Shinjuku paper are a
   small multiple of user IPIs. *)
let shinjuku_mechanism =
  {
    mech_name = "Shinjuku";
    dispatch_cost = 120;
    preempt_send = 250;
    preempt_delivery = 1_400;
    preempt_receive = 650;
    worker_switch = 60;
  }

(* ghOSt: every dispatch is an agent decision committed through a kernel
   transaction; preemption rides kernel IPIs; workers are kernel threads. *)
let ghost_mechanism =
  {
    mech_name = "ghOSt";
    dispatch_cost = 1_200;
    preempt_send = Costs.kipi_send_ns;
    preempt_delivery = Costs.kipi_delivery_ns;
    preempt_receive = Costs.kipi_receive_ns;
    worker_switch = Costs.linux_ctx_switch_ns;
  }

type mode = Central | Percore

(* One worker core.  [gen]/[reserved]/[incoming] guard central-mode
   assignments in flight; [kick_pending] coalesces percore-mode kicks.
   [qtimer] is the unit's reusable central-mode quantum timer, re-armed
   per dispatch; [qt_gen] records [gen] at the last arm so a firing knows
   whether the dispatch it covered is still running. *)
type unit_state = {
  ex : Rc.exec;
  mutable gen : int;
  mutable reserved : bool;
  mutable incoming : int;
  mutable kick_pending : bool;
  qtimer : Engine.timer;
  mutable qt_gen : int;
}

type t = {
  rc : Rc.t;
  dispatcher_core : int;
  units : unit_state array;
  by_core : (int, unit_state) Hashtbl.t;
  mech : mechanism;
  quantum : Time.t;
  tick_period : Time.t;  (* 0 when pinned central: no per-core timers *)
  mutable mode : mode;
  mutable mode_switches : int;
  mutable disp_busy_until : Time.t;
  mutable dispatches : int;
}

let runtime t = t.rc
let now t = Rc.now t.rc
let unit_of t core = Hashtbl.find t.by_core core
let unit_of_exec t (ex : Rc.exec) = t.units.(ex.Rc.exec_slot)
let queue_length t = t.rc.Rc.probe.Sched_ops.queued ()

(* The dispatcher is a serial resource (central mode only). *)
let dispatcher_do t cost f =
  let start = max (now t) t.disp_busy_until in
  t.disp_busy_until <- start + cost;
  ignore (Engine.at t.rc.Rc.engine (start + cost) f)

(* Interrupt handling steals CPU time from the running segment (percore
   mode); the cost is charged to the victim as scheduling overhead. *)
let steal_time t u cost =
  match u.ex.Rc.current with
  | Some task when not (Eventq.is_null u.ex.Rc.completion) ->
      Engine.cancel t.rc.Rc.engine u.ex.Rc.completion;
      task.Task.segment_end <- task.Task.segment_end + cost;
      task.Task.obs_overhead_ns <- task.Task.obs_overhead_ns + cost;
      Rc.arm_completion t.rc u.ex task
  | _ -> ()

(* ---- task start (both modes funnel through here) ------------------------- *)

let rec start_on t u (task : Task.t) =
  u.reserved <- false;
  u.incoming <- -1;
  if task.Task.killed then begin
    (* Killed while the assignment was in flight (deadline fired between
       dequeue and arrival).  The drop was accounted at kill time; discard
       exactly as [Rc.next_live] would have. *)
    task.Task.state <- Task.Exited;
    if not (Rc.is_be t.rc task) then t.rc.Rc.policy.task_terminate task;
    reschedule t u ~prev:None
  end
  else begin
    t.dispatches <- t.dispatches + 1;
    let switch_cost =
      if task.Task.app = u.ex.Rc.active_app then t.mech.worker_switch
      else Rc.app_switch t.rc u.ex task
    in
    task.Task.wake_time <- None;
    let start = Rc.begin_run t.rc u.ex task ~switch_cost in
    u.gen <- u.gen + 1;
    (* Quantum preemption covers central-mode assignments; percore-mode
       runs are preempted by the per-core timer instead.  Re-arming the
       unit's timer supersedes any stale pending firing. *)
    if t.quantum > 0 && not (Rc.is_be t.rc task) then begin
      u.qt_gen <- u.gen;
      Engine.arm u.qtimer ~at:(start + t.quantum)
    end;
    Rc.run_after_switch t.rc u.ex task ~switch_cost
  end

and assign t u (task : Task.t) =
  u.reserved <- true;
  u.incoming <- task.Task.app;
  dispatcher_do t t.mech.dispatch_cost (fun () -> start_on t u task)

and try_next t u =
  if (not u.reserved) && u.ex.Rc.current = None && not (Rc.unit_capped t.rc u.ex)
  then begin
    match
      Rc.next_live t.rc (fun () ->
          t.rc.Rc.policy.task_dequeue ~cpu:u.ex.Rc.exec_core)
    with
    | Some task -> assign t u task
    | None ->
        if Rc.be_occupancy t.rc < t.rc.Rc.be_allowance then (
          match
            Rc.next_live t.rc (fun () -> Runqueue.pop_head t.rc.Rc.be_queue)
          with
          | Some be -> assign t u be
          | None -> ())
  end

(* Percore-mode scheduling: the worker picks from the shared queue
   synchronously, no dispatcher in the path. *)
and schedule t u ~prev =
  if (not u.reserved) && u.ex.Rc.current = None && not (Rc.unit_capped t.rc u.ex)
  then begin
    let rc = t.rc in
    let pick () =
      let be_next =
        if Rc.be_occupancy rc < rc.Rc.be_allowance then
          Runqueue.pop_head rc.Rc.be_queue
        else None
      in
      match be_next with
      | Some task -> Some task
      | None -> (
          match rc.Rc.policy.task_dequeue ~cpu:u.ex.Rc.exec_core with
          | Some task -> Some task
          | None -> rc.Rc.policy.sched_balance ~cpu:u.ex.Rc.exec_core)
    in
    match Rc.next_live rc pick with
    | None -> ()
    | Some task ->
        let same = match prev with Some p -> p == task | None -> false in
        let cost =
          if same then 0
          else if task.Task.app = u.ex.Rc.active_app then begin
            rc.Rc.switches <- rc.Rc.switches + 1;
            Costs.uthread_yield_ns
          end
          else Rc.app_switch rc u.ex task
        in
        task.Task.wake_time <- None;
        ignore (Rc.begin_run rc u.ex task ~switch_cost:cost);
        u.gen <- u.gen + 1;
        Rc.run_after_switch rc u.ex task ~switch_cost:cost
  end

and reschedule t u ~prev =
  match t.mode with
  | Central -> try_next t u
  | Percore -> schedule t u ~prev

(* ---- preemption ----------------------------------------------------------- *)

(* Central-mode arm: the notification rides the modeled IPI path, so
   injected IPI faults are consulted (a dropped one loses the preemption —
   the watchdog is the backstop). *)
and do_preempt t u gen ~requeue =
  if u.gen = gen then
    match Rc.depose t.rc u.ex ~overhead:t.mech.preempt_receive with
    | Some task ->
        requeue task;
        reschedule t u ~prev:(Some task)
    | None -> ()

and deliver_preempt t u gen ~requeue =
  match
    Machine.fault_fate t.rc.Rc.machine ~core:u.ex.Rc.exec_core
      Vectors.uintr_notification
  with
  | Machine.Drop -> ()
  | Machine.Delay d ->
      ignore
        (Engine.after t.rc.Rc.engine (t.mech.preempt_delivery + d) (fun () ->
             do_preempt t u gen ~requeue))
  | Machine.Deliver ->
      ignore
        (Engine.after t.rc.Rc.engine t.mech.preempt_delivery (fun () ->
             do_preempt t u gen ~requeue))

and quantum_check t u (task : Task.t) gen =
  let still_running =
    match u.ex.Rc.current with
    | Some cur -> cur == task && u.gen = gen
    | None -> false
  in
  if still_running then begin
    t.rc.Rc.preempts <- t.rc.Rc.preempts + 1;
    dispatcher_do t t.mech.preempt_send (fun () ->
        deliver_preempt t u gen ~requeue:(fun task ->
            t.rc.Rc.policy.task_enqueue ~cpu:t.dispatcher_core
              ~reason:Sched_ops.Enq_preempted task))
  end

(* The reusable quantum timer's stable callback: the arm that scheduled
   this firing recorded [qt_gen]; [quantum_check] compares it against the
   unit's live generation, so a dispatch that ended (or was superseded —
   re-arming cancels the stale firing outright) is left alone. *)
let quantum_fire t u =
  match u.ex.Rc.current with
  | Some task -> quantum_check t u task u.qt_gen
  | None -> ()

(* Percore-mode arm: synchronous, the timer handler already charged the
   receive cost to the victim. *)
let preempt_now t u =
  match Rc.depose t.rc u.ex ~overhead:0 with
  | Some task ->
      if Rc.is_be t.rc task then begin
        t.rc.Rc.be_preempts <- t.rc.Rc.be_preempts + 1;
        Runqueue.push_head t.rc.Rc.be_queue task
      end
      else begin
        t.rc.Rc.preempts <- t.rc.Rc.preempts + 1;
        t.rc.Rc.policy.task_enqueue ~cpu:t.dispatcher_core
          ~reason:Sched_ops.Enq_preempted task
      end;
      schedule t u ~prev:(Some task)
  | None -> ()

(* ---- kicks and the shared-queue poke -------------------------------------- *)

let kick t u =
  if u.ex.Rc.current = None && (not u.kick_pending) && not u.reserved then begin
    u.kick_pending <- true;
    let delay = max 0 (u.ex.Rc.stolen_until - now t) in
    ignore
      (Engine.after t.rc.Rc.engine delay (fun () ->
           u.kick_pending <- false;
           if u.ex.Rc.current = None then reschedule t u ~prev:None))
  end

let pump t =
  let made_progress = ref true in
  while !made_progress do
    made_progress := false;
    if queue_length t > 0 then
      match
        Array.to_list t.units
        |> List.find_opt (fun u ->
               u.ex.Rc.current = None && (not u.reserved)
               && not (Rc.unit_capped t.rc u.ex))
      with
      | Some u ->
          try_next t u;
          made_progress := true
      | None -> ()
  done

(* New work arrived in the shared queue: the mode decides who notices. *)
let poke t =
  match t.mode with
  | Central -> pump t
  | Percore -> (
      match Sched_ops.pick_idle (Rc.view t.rc) with
      | Some core -> kick t (unit_of t core)
      | None -> ())

(* ---- the mode monitor ----------------------------------------------------- *)

let flip t m =
  t.mode <- m;
  t.mode_switches <- t.mode_switches + 1;
  Rc.trace_instant t.rc ~core:t.dispatcher_core Trace.Mode_switch
    (match m with Central -> "central" | Percore -> "percore");
  match m with
  | Percore ->
      (* Idle workers now self-schedule; wake them up. *)
      Array.iter (fun u -> kick t u) t.units
  | Central -> pump t

(* The monitor samples the shared queue every [check_period] and flips to
   percore past 2n queued tasks for n workers, back to central at n/2 or
   below; the gap is the hysteresis band. *)
let check_period = Time.us 25

let check_mode t =
  let depth = queue_length t and n = Array.length t.units in
  match t.mode with
  | Central when depth > 2 * n -> flip t Percore
  | Percore when depth <= n / 2 -> flip t Central
  | Central | Percore -> ()

(* ---- percore timer ticks -------------------------------------------------- *)

(* One delegated timer per worker core.  The timer only acts in percore
   mode; in central mode preemption is the dispatcher's quantum timer.  A
   task that started under one mode and survived a flip is preempted by
   whichever mechanism the current mode provides (plus the watchdog as the
   backstop), so no run can outlive both. *)
let on_tick t u =
  if t.mode = Percore && now t >= u.ex.Rc.stolen_until then begin
    t.rc.Rc.ticks <- t.rc.Rc.ticks + 1;
    steal_time t u (Costs.user_timer_receive_ns + Costs.senduipi_sn_ns);
    match u.ex.Rc.current with
    | Some _
      when (not (Eventq.is_null u.ex.Rc.completion))
           && Rc.unit_capped t.rc u.ex ->
        (* Broker-capped unit: the tick only enforces the cap (backstop
           for a run that slipped in around a shrink). *)
        preempt_now t u
    | Some task when not (Eventq.is_null u.ex.Rc.completion) ->
        if Rc.is_be t.rc task then begin
          if Rc.be_occupancy t.rc > t.rc.Rc.be_allowance then preempt_now t u
        end
        else if
          (* The policy gets first say; single-queue policies written for
             the dispatcher leave ticks alone, so the quantum is enforced
             here — percore mode timeshares exactly like central mode,
             just from the local timer instead of a dispatcher IPI. *)
          t.rc.Rc.policy.sched_timer_tick ~cpu:u.ex.Rc.exec_core task
          || (t.quantum > 0 && now t - task.Task.run_start >= t.quantum)
        then preempt_now t u
    | _ -> if not (Rc.unit_capped t.rc u.ex) then kick t u
  end

(* ---- watchdog: dispatcher failover + stuck-worker rescue ------------------ *)

let rescue_worker t u ~late =
  Rc.rescued t.rc u.ex ~late;
  match Rc.depose t.rc u.ex ~overhead:t.mech.preempt_receive with
  | Some task ->
      if Rc.is_be t.rc task then Runqueue.push_head t.rc.Rc.be_queue task
      else
        t.rc.Rc.policy.task_enqueue ~cpu:t.dispatcher_core
          ~reason:Sched_ops.Enq_preempted task;
      reschedule t u ~prev:(Some task)
  | None -> ()

let watchdog_scan t ~bound =
  if t.disp_busy_until > now t + bound then begin
    t.rc.Rc.failovers <- t.rc.Rc.failovers + 1;
    Rc.trace_instant t.rc ~core:t.dispatcher_core Trace.Failover "dispatcher";
    t.disp_busy_until <- now t + Costs.app_switch_ns
  end;
  Array.iter
    (fun u ->
      if now t >= u.ex.Rc.stolen_until then
        match u.ex.Rc.current with
        | Some task when not (Eventq.is_null u.ex.Rc.completion) ->
            (* The expected preemption point depends on which mechanism
               covers the run; grant the larger of the two.  A pinned
               runtime has no tick period, so the bound is
               [bound + quantum]. *)
            let allowed =
              bound
              +
              if Rc.is_be t.rc task then 0
              else max (max t.quantum 0) t.tick_period
            in
            let overrun = now t - task.Task.run_start - allowed in
            if overrun > 0 then rescue_worker t u ~late:overrun
        | _ -> ())
    t.units

(* ---- core allocation ------------------------------------------------------ *)

let preempt_be_central t u =
  match u.ex.Rc.current with
  | Some task
    when Rc.is_be t.rc task && not (Eventq.is_null u.ex.Rc.completion) ->
      let gen = u.gen in
      t.rc.Rc.be_preempts <- t.rc.Rc.be_preempts + 1;
      dispatcher_do t t.mech.preempt_send (fun () ->
          deliver_preempt t u gen ~requeue:(fun task ->
              Runqueue.push_head t.rc.Rc.be_queue task));
      true
  | _ -> false

let preempt_be_percore t u =
  match u.ex.Rc.current with
  | Some task
    when Rc.is_be t.rc task && not (Eventq.is_null u.ex.Rc.completion) ->
      steal_time t u (Costs.uipi_receive_ns ~cross_numa:false);
      (match Rc.depose t.rc u.ex ~overhead:0 with
      | Some task ->
          t.rc.Rc.be_preempts <- t.rc.Rc.be_preempts + 1;
          Runqueue.push_head t.rc.Rc.be_queue task;
          schedule t u ~prev:(Some task)
      | None -> ());
      true
  | _ -> false

(* Wake a unit for new work by whichever path the current mode uses. *)
let redrive t u =
  match t.mode with
  | Central -> try_next t u
  | Percore -> if u.ex.Rc.current = None then kick t u

let set_be_allowance t n =
  let old = t.rc.Rc.be_allowance in
  t.rc.Rc.be_allowance <- n;
  if n < old then begin
    let excess = ref (Rc.be_occupancy t.rc - n) in
    let preempt_be =
      match t.mode with
      | Central -> preempt_be_central t
      | Percore -> preempt_be_percore t
    in
    if !excess > 0 then
      Array.iter (fun u -> if !excess > 0 && preempt_be u then decr excess) t.units
  end
  else if n > old then Array.iter (redrive t) t.units

(* Preempt whatever runs on a broker-capped unit, by whichever mechanism
   the current mode provides: a dispatcher IPI (central) or a synchronous
   local preemption with the receive cost charged (percore). *)
let preempt_capped_unit t u =
  match u.ex.Rc.current with
  | Some task when not (Eventq.is_null u.ex.Rc.completion) -> (
      match t.mode with
      | Central ->
          let gen = u.gen in
          if Rc.is_be t.rc task then
            t.rc.Rc.be_preempts <- t.rc.Rc.be_preempts + 1
          else t.rc.Rc.preempts <- t.rc.Rc.preempts + 1;
          dispatcher_do t t.mech.preempt_send (fun () ->
              deliver_preempt t u gen ~requeue:(fun task ->
                  if Rc.is_be t.rc task then
                    Runqueue.push_head t.rc.Rc.be_queue task
                  else
                    t.rc.Rc.policy.task_enqueue ~cpu:t.dispatcher_core
                      ~reason:Sched_ops.Enq_preempted task))
      | Percore ->
          steal_time t u (Costs.uipi_receive_ns ~cross_numa:false);
          preempt_now t u)
  | _ -> ()

(* ---- construction --------------------------------------------------------- *)

let create machine kmod ~dispatcher_core ~worker_cores ~quantum
    ?(timer_hz = 100_000) ?(adaptive = true) ?(mechanism = skyloft_mechanism)
    ?watchdog ctor =
  if worker_cores = [] then invalid_arg "Hybrid.create: no worker cores";
  if List.mem dispatcher_core worker_cores then
    invalid_arg "Hybrid.create: dispatcher core cannot also be a worker";
  if timer_hz <= 0 then invalid_arg "Hybrid.create: timer_hz must be positive";
  (match watchdog with
  | Some bound when bound <= 0 ->
      invalid_arg "Hybrid.create: watchdog bound must be positive"
  | Some _ | None -> ());
  let engine = Machine.engine machine in
  let units =
    Array.of_list
      (List.map
         (fun core_id ->
           {
             ex = Rc.make_exec core_id;
             gen = 0;
             reserved = false;
             incoming = -1;
             kick_pending = false;
             qtimer = Engine.timer engine ignore;
             qt_gen = 0;
           })
         worker_cores)
  in
  let t =
    {
      rc = Rc.create machine kmod;
      dispatcher_core;
      units;
      by_core = Hashtbl.create 16;
      mech = mechanism;
      quantum;
      tick_period = (if adaptive then max 1 (1_000_000_000 / timer_hz) else 0);
      mode = Central;
      mode_switches = 0;
      disp_busy_until = 0;
      dispatches = 0;
    }
  in
  Array.iter (fun u -> Hashtbl.replace t.by_core u.ex.Rc.exec_core u) units;
  Array.iter (fun u -> Engine.set_callback u.qtimer (fun () -> quantum_fire t u)) units;
  Rc.install_dispatch t.rc
    {
      Rc.d_name = "hybrid";
      d_units = Array.map (fun u -> u.ex) units;
      (* a serial dispatcher cannot pin *)
      d_pinnable = false;
      d_enqueue_cpu = (fun _ -> t.dispatcher_core);
      d_incoming_app = (fun ex -> (unit_of_exec t ex).incoming);
      d_released =
        (fun ex ->
          let u = unit_of_exec t ex in
          u.gen <- u.gen + 1);
      d_reschedule = (fun ex ~prev -> reschedule t (unit_of_exec t ex) ~prev);
      d_place =
        (fun task ~cpu:_ ->
          t.rc.Rc.policy.task_init task;
          t.rc.Rc.policy.task_enqueue ~cpu:t.dispatcher_core
            ~reason:Sched_ops.Enq_new task;
          poke t);
      d_wake =
        (fun task ~waker_cpu:_ ->
          ignore (t.rc.Rc.policy.task_wakeup ~waker_cpu:t.dispatcher_core task);
          poke t);
      d_kthread = (fun _ _ -> ());
      d_evict = (fun ex -> preempt_capped_unit t (unit_of_exec t ex));
      d_redrive = (fun ex -> redrive t (unit_of_exec t ex));
      d_set_be_allowance = set_be_allowance t;
      d_alloc_event =
        (fun ev ->
          match ev.Allocator.action with
          | Allocator.Degraded ->
              Rc.trace_instant t.rc ~core:t.dispatcher_core Trace.Alloc_degrade
                ev.Allocator.app_name
          | Allocator.Recovered ->
              Rc.trace_instant t.rc ~core:t.dispatcher_core Trace.Alloc_recover
                ev.Allocator.app_name
          | Allocator.Granted | Allocator.Reclaimed | Allocator.Yielded -> ());
      d_be_attached =
        (fun () ->
          poke t;
          Array.iter (fun u -> reschedule t u ~prev:None) t.units);
    };
  Rc.install_policy t.rc ctor;
  Rc.activate_daemon t.rc;
  Array.iter
    (fun u ->
      Kmod.on_steal kmod ~core:u.ex.Rc.exec_core (fun ~duration ->
          Rc.freeze_for_steal t.rc u.ex ~duration))
    units;
  Kmod.on_steal kmod ~core:dispatcher_core (fun ~duration ->
      t.disp_busy_until <- max t.disp_busy_until (now t + duration));
  (* Per-core delegated timers and the mode monitor; the tick handler is a
     no-op outside percore mode, so central mode pays no tick overhead.  A
     pinned runtime arms neither and never leaves central mode. *)
  if adaptive then begin
    Array.iter
      (fun u ->
        ignore
          (Engine.every t.rc.Rc.engine ~period:t.tick_period (fun () ->
               on_tick t u;
               true)))
      units;
    ignore
      (Engine.every t.rc.Rc.engine ~period:check_period (fun () ->
           check_mode t;
           true))
  end;
  Rc.start_watchdog t.rc ~bound:watchdog (fun ~bound -> watchdog_scan t ~bound);
  Rc.add_metrics t.rc (fun labels reg ->
      let c name help read = Registry.counter reg ~help ~labels name read in
      c "skyloft_hybrid_dispatches_total" "Central-mode dispatcher assignments"
        (fun () -> t.dispatches);
      c "skyloft_hybrid_mode_switches_total" "Dispatch-mode transitions"
        (fun () -> t.mode_switches);
      Registry.gauge reg ~labels "skyloft_hybrid_mode"
        ~help:"Current dispatch mode (0 = central, 1 = percore)" (fun () ->
          match t.mode with Central -> 0.0 | Percore -> 1.0);
      Registry.gauge reg ~labels "skyloft_hybrid_queue_length"
        ~help:"LC tasks waiting in the shared queue" (fun () ->
          float_of_int (queue_length t)));
  t

let mode t = t.mode
let mode_switches t = t.mode_switches
let dispatches t = t.dispatches
