module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
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
  dispatch_cost : Time.t;  (* dispatcher work per assignment decision *)
  preempt_send : Time.t;  (* dispatcher-side send cost *)
  preempt_delivery : Time.t;  (* send-to-handler latency at the worker *)
  preempt_receive : Time.t;  (* worker-side handling overhead *)
  worker_switch : Time.t;  (* worker-side task switch cost *)
}

let dispatch_cost m = m.dispatch_cost

let skyloft_mechanism =
  {
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
    dispatch_cost = 1_200;
    preempt_send = Costs.kipi_send_ns;
    preempt_delivery = Costs.kipi_delivery_ns;
    preempt_receive = Costs.kipi_receive_ns;
    worker_switch = Costs.linux_ctx_switch_ns;
  }

type mode = Central | Percore

(* One worker core: its shared per-core state [pc] (whose [ex] is [ex])
   for percore mode, plus what central mode needs.  [gen] and the exec's
   [incoming] (the app id of the task the dispatcher is committing, -1
   when none) guard assignments in flight.  [atimer] lands the unit's one
   in-flight assignment, [assigned] ([Task.nil] when none).  [qtimer] is
   the unit's reusable central-mode quantum timer, re-armed per dispatch;
   [qt_gen] records [gen] at the last arm so a firing knows whether the
   dispatch it covered is still running. *)
type unit_state = {
  ex : Rc.exec;
  pc : Percore.cpu;
  mutable gen : int;
  atimer : Engine.timer;
  mutable assigned : Task.t;
  qtimer : Engine.timer;
  mutable qt_gen : int;
}

type t = {
  rc : Rc.t;
  pc : Percore.t;
  dispatcher_core : int;
  units : unit_state array;
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
let unit_of_exec t (ex : Rc.exec) = t.units.(Rc.exec_slot ex)
let queue_length t = Rc.lc_queued t.rc

(* The dispatcher is a serial resource (central mode only): when an
   operation of [cost] issued now completes. *)
let dispatcher_done t cost =
  let start = Int.max (now t) t.disp_busy_until in
  t.disp_busy_until <- start + cost;
  start + cost

let dispatcher_do t cost f = Engine.at (Rc.engine t.rc) (dispatcher_done t cost) f

let reserved u = Rc.incoming u.ex >= 0

(* ---- central-mode task start ---------------------------------------------- *)

let rec start_on t u (task : Task.t) =
  Rc.set_incoming t.rc u.ex (-1);
  (* Killed while the assignment was in flight (deadline fired between
     dequeue and arrival): discarded like a task killed while queued. *)
  if Rc.discard_killed t.rc task then reschedule t u ~prev:Task.nil
  else begin
    t.dispatches <- t.dispatches + 1;
    let switch_cost =
      if task.Task.app = Rc.active_app u.ex then t.mech.worker_switch
      else Rc.app_switch t.rc u.ex task
    in
    let start = Rc.begin_run t.rc u.ex task ~switch_cost in
    u.gen <- u.gen + 1;
    (* Quantum preemption covers central-mode assignments; percore-mode
       runs are preempted at the per-core tick instead.  Re-arming the
       unit's timer supersedes any stale pending firing. *)
    if t.quantum > 0 && not (Rc.is_be t.rc task) then begin
      u.qt_gen <- u.gen;
      Engine.arm u.qtimer ~at:(start + t.quantum)
    end;
    Rc.run_after_switch t.rc u.ex ~switch_cost
  end

and assign t u (task : Task.t) =
  Rc.set_incoming t.rc u.ex task.Task.app;
  u.assigned <- task;
  Engine.arm u.atimer ~at:(dispatcher_done t t.mech.dispatch_cost)

and try_next t u =
  if (not (reserved u)) && Rc.current u.ex == Task.nil && not (Rc.unit_capped t.rc u.ex)
  then begin
    match Rc.next_lc t.rc ~cpu:(Rc.exec_core u.ex) ~balance:false with
    | Some task -> assign t u task
    | None ->
        if Rc.be_occupancy t.rc < Rc.be_allowance t.rc then
          match Rc.next_be t.rc with Some be -> assign t u be | None -> ()
  end

and reschedule t u ~prev =
  match t.mode with
  | Central -> try_next t u
  | Percore -> Percore.schedule t.pc u.pc ~prev

(* ---- preemption ----------------------------------------------------------- *)

(* Central-mode arm: the notification rides the modeled IPI path, so
   injected IPI faults are consulted (a dropped one loses the preemption —
   the watchdog is the backstop).  The deposed task goes back to the BE
   queue's head or the shared queue; the sender counted it. *)
and do_preempt t u gen =
  if u.gen = gen then
    match Rc.depose t.rc u.ex ~overhead:t.mech.preempt_receive with
    | Some task ->
        Rc.enqueue t.rc ~cpu:t.dispatcher_core ~reason:Sched_ops.Enq_preempted task;
        reschedule t u ~prev:task
    | None -> ()

and deliver_preempt t u gen =
  let arrive_after extra =
    Engine.after (Rc.engine t.rc) (t.mech.preempt_delivery + extra) (fun () ->
        do_preempt t u gen)
  in
  match
    Machine.fault_fate (Rc.machine t.rc) ~core:(Rc.exec_core u.ex)
      Vectors.uintr_notification
  with
  | Machine.Drop -> ()
  | Machine.Delay d -> arrive_after d
  | Machine.Deliver -> arrive_after 0

(* Send the running [task] a preemption from the dispatcher, counted at
   the send. *)
and send_preempt t u (task : Task.t) =
  let gen = u.gen in
  Rc.count_preemption t.rc task;
  dispatcher_do t t.mech.preempt_send (fun () -> deliver_preempt t u gen)

(* The assignment timer's stable callback. *)
let assign_fire t u =
  let task = u.assigned in
  u.assigned <- Task.nil;
  start_on t u task

(* The reusable quantum timer's stable callback: the arm that scheduled
   this firing recorded [qt_gen]; comparing it against the unit's live
   generation leaves a dispatch that ended (or was superseded — re-arming
   cancels the stale firing outright) alone. *)
let quantum_fire t u =
  if Rc.current u.ex != Task.nil && u.gen = u.qt_gen then
    send_preempt t u (Rc.current u.ex)

(* ---- the shared-queue poke ------------------------------------------------ *)

(* The first unit, in order, that runs nothing, awaits no assignment and
   is under the broker cap; -1 when there is none. *)
let rec first_free t i =
  if i = Array.length t.units then -1
  else
    let u = t.units.(i) in
    if Rc.current u.ex == Task.nil && (not (reserved u)) && not (Rc.unit_capped t.rc u.ex)
    then i
    else first_free t (i + 1)

(* Hand queued work to free units until either runs out. *)
let rec pump t =
  if queue_length t > 0 then
    let i = first_free t 0 in
    if i >= 0 then begin
      try_next t t.units.(i);
      pump t
    end

(* New work arrived in the shared queue: the mode decides who notices. *)
let poke t =
  match t.mode with
  | Central -> pump t
  | Percore -> Percore.kick_some_idle t.pc

(* ---- the mode monitor ----------------------------------------------------- *)

let flip t m =
  t.mode <- m;
  t.mode_switches <- t.mode_switches + 1;
  Rc.trace_instant t.rc ~core:t.dispatcher_core Trace.Mode_switch
    (match m with Central -> "central" | Percore -> "percore");
  match m with
  | Percore ->
      (* Idle workers now self-schedule; wake them up. *)
      Percore.kick_idle t.pc
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
let on_tick t (u : unit_state) =
  if t.mode = Percore && now t >= Percore.stolen_until t.pc u.pc then
    Percore.on_tick t.pc u.pc

(* ---- watchdog: dispatcher failover + stuck-worker rescue ------------------ *)

(* A rescue is a dispatcher preemption that cannot be lost. *)
let rescue_worker t u ~late =
  Rc.rescued t.rc u.ex ~late;
  do_preempt t u u.gen

let watchdog_scan t ~bound =
  if t.disp_busy_until > now t + bound then begin
    Rc.failover t.rc ~core:t.dispatcher_core;
    t.disp_busy_until <- now t + Costs.app_switch_ns
  end;
  Array.iter
    (fun u ->
      let task = Rc.current u.ex in
      if now t >= Percore.stolen_until t.pc u.pc && task != Task.nil
         && Engine.armed (Rc.completion u.ex)
      then begin
        (* The expected preemption point depends on which mechanism
           covers the run; grant the larger of the two.  A pinned runtime
           has no tick period, so the bound is [bound + quantum]. *)
        let allowed =
          bound
          +
          if Rc.is_be t.rc task then 0
          else Int.max (Int.max t.quantum 0) t.tick_period
        in
        let overrun = now t - task.Task.run_start - allowed in
        if overrun > 0 then rescue_worker t u ~late:overrun
      end)
    t.units

(* ---- core allocation ------------------------------------------------------ *)

(* Preempt the unit's BE task, if it runs one, by the mode's means. *)
let preempt_be t (u : unit_state) =
  match t.mode with
  | Percore -> Percore.preempt_be t.pc u.pc
  | Central ->
      Rc.is_be t.rc (Rc.current u.ex)
      && Engine.armed (Rc.completion u.ex)
      && begin
           send_preempt t u (Rc.current u.ex);
           true
         end

(* Wake a unit for new work by whichever path the current mode uses. *)
let redrive t u =
  match t.mode with
  | Central -> try_next t u
  | Percore -> Percore.kick t.pc u.pc

(* Preempt whatever runs on a broker-capped unit, by whichever mechanism
   the current mode provides: a dispatcher IPI (central) or the per-core
   eviction (percore). *)
let preempt_capped_unit t u =
  if Rc.current u.ex != Task.nil && Engine.armed (Rc.completion u.ex) then
    match t.mode with
    | Central -> send_preempt t u (Rc.current u.ex)
    | Percore -> Percore.evict t.pc u.pc

(* ---- construction --------------------------------------------------------- *)

(* Per-core delegated timers tick at 100 kHz (Table 5). *)
let tick_ns = Time.us 10

let create machine kmod ~dispatcher_core ~worker_cores ~quantum
    ?(adaptive = true) ?(mechanism = skyloft_mechanism) ?watchdog ctor =
  if worker_cores = [] then invalid_arg "Hybrid.create: no worker cores";
  if List.mem dispatcher_core worker_cores then
    invalid_arg "Hybrid.create: dispatcher core cannot also be a worker";
  (match watchdog with
  | Some bound when bound <= 0 ->
      invalid_arg "Hybrid.create: watchdog bound must be positive"
  | Some _ | None -> ());
  let engine = Machine.engine machine in
  let rc = Rc.create machine kmod in
  let pc =
    Percore.create rc ~cores:(Array.of_list worker_cores) ~quantum ~park:None
  in
  let units =
    Array.map
      (fun (cpu : Percore.cpu) ->
        {
          ex = Percore.ex cpu;
          pc = cpu;
          gen = 0;
          atimer = Engine.timer engine ignore;
          assigned = Task.nil;
          qtimer = Engine.timer engine ignore;
          qt_gen = 0;
        })
      (Percore.cpus pc)
  in
  let t =
    {
      rc;
      pc;
      dispatcher_core;
      units;
      mech = mechanism;
      quantum;
      tick_period = (if adaptive then tick_ns else 0);
      mode = Central;
      mode_switches = 0;
      disp_busy_until = 0;
      dispatches = 0;
    }
  in
  Array.iter
    (fun u ->
      Engine.set_callback u.atimer (fun () -> assign_fire t u);
      Engine.set_callback u.qtimer (fun () -> quantum_fire t u))
    units;
  Rc.install_dispatch t.rc
    {
      Rc.d_name = "hybrid";
      d_units = Array.map (fun u -> u.ex) units;
      (* a serial dispatcher cannot pin *)
      d_pinnable = false;
      d_enqueue_cpu = (fun _ -> t.dispatcher_core);
      d_released =
        (fun ex ->
          let u = unit_of_exec t ex in
          u.gen <- u.gen + 1);
      d_reschedule = (fun ex ~prev -> reschedule t (unit_of_exec t ex) ~prev);
      d_place =
        (fun task ~cpu:_ ->
          (Rc.policy t.rc).task_init task;
          Rc.enqueue t.rc ~cpu:t.dispatcher_core ~reason:Sched_ops.Enq_new task;
          poke t);
      (* A woken BE task rejoins the BE queue, which the units drain
         themselves, as when the BE allowance grows. *)
      d_wake =
        (fun task ->
          ignore (Rc.place_woken t.rc ~waker_cpu:t.dispatcher_core task);
          if Rc.is_be t.rc task then Array.iter (redrive t) t.units else poke t);
      d_kthread = (fun _ _ -> ());
      d_evict = (fun ex -> preempt_capped_unit t (unit_of_exec t ex));
      d_redrive = (fun ex -> redrive t (unit_of_exec t ex));
      d_preempt_be = (fun ex -> preempt_be t (unit_of_exec t ex));
      d_be_grown = (fun () -> Array.iter (redrive t) t.units);
      d_alloc_event =
        (fun (ev : Allocator.event) ->
          match ev.action with
          | Allocator.Degrade ->
              Rc.trace_instant t.rc ~core:t.dispatcher_core Trace.Alloc_degrade
                ev.name
          | Allocator.Recover ->
              Rc.trace_instant t.rc ~core:t.dispatcher_core Trace.Alloc_recover
                ev.name
          | Allocator.Grant | Allocator.Reclaim | Allocator.Yield
          | Allocator.Quarantine | Allocator.Release | Allocator.Crash ->
              ());
      d_be_attached =
        (fun () ->
          poke t;
          Array.iter (fun u -> reschedule t u ~prev:Task.nil) t.units);
    };
  Rc.install_policy t.rc ctor;
  Rc.activate_daemon t.rc;
  Array.iter
    (fun u ->
      Kmod.on_steal kmod ~core:(Rc.exec_core u.ex) (fun ~duration ->
          Rc.freeze_for_steal u.ex ~duration))
    units;
  Kmod.on_steal kmod ~core:dispatcher_core (fun ~duration ->
      t.disp_busy_until <- Int.max t.disp_busy_until (now t + duration));
  (* Per-core delegated timers and the mode monitor.  The worker ticks are
     same-phase [Engine.every]s, so each tick instant is one heap entry
     for all of them; outside percore mode the handler is a no-op, so a
     central-mode tick instant costs one pop plus one mode test per
     worker, and no simulated time.  A pinned runtime arms neither and
     never leaves central mode. *)
  if adaptive then begin
    Array.iter
      (fun u ->
        ignore
          (Engine.every (Rc.engine t.rc) ~period:t.tick_period (fun () ->
               on_tick t u;
               true)))
      units;
    ignore
      (Engine.every (Rc.engine t.rc) ~period:check_period (fun () ->
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
