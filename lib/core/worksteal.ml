module Time = Skyloft_sim.Time
module Coro = Skyloft_sim.Coro
module Engine = Skyloft_sim.Engine
module Eventq = Skyloft_sim.Eventq
module Machine = Skyloft_hw.Machine
module Costs = Skyloft_hw.Costs
module Vectors = Skyloft_hw.Vectors
module Kmod = Skyloft_kernel.Kmod
module Histogram = Skyloft_stats.Histogram
module Trace = Skyloft_stats.Trace
module Timeseries = Skyloft_stats.Timeseries
module Allocator = Skyloft_alloc.Allocator
module Registry = Skyloft_obs.Registry
module Rc = Runtime_core

(* The work-stealing runtime: Runtime_core plus per-core DEQUES with
   steal-half rebalancing (Shenango §5.3 made first-class).  Each core owns
   a deque — the owner pushes and pops at the head for LIFO cache locality,
   preempted and yielded tasks go to the tail — and a core whose deque runs
   dry scans the other deques round-robin from a persisted per-thief cursor
   and takes HALF the first non-empty victim's queue in one grab.  Stealing
   is not free: every probed victim deque costs a remote cacheline touch and
   every migrated task drags its state across cores, both charged as
   scheduling overhead on the stolen dispatch.  A core whose scan finds
   nothing parks (Shenango-style yield to the kernel) — immediately once
   scans keep failing, after a grace period otherwise — so steal storms
   under uniform overload burn park/unpark transitions instead of unbounded
   rescans.  Everything else — lifecycle, accounting, BE occupancy,
   deadlines, allocator, metrics — lives in the core. *)

(* Probing a victim's deque reads a remotely owned cacheline. *)
let steal_probe_ns = Time.of_cycles Costs.remote_cacheline

(* A migrated task's descriptor + hot stack lines move to the thief. *)
let steal_task_ns = Time.of_cycles (2 * Costs.remote_cacheline)

(* Consecutive failed scans before an idle core parks without grace. *)
let storm_park_after = 2

let default_park = Some (Time.us 5, Costs.linux_wakeup_switch_ns + Time.us 1)

type cpu = {
  ex : Rc.exec;
  deque : Runqueue.t;  (* owner: head (LIFO); thieves: tail (steal-half) *)
  mutable kick_pending : bool;
  mutable parked : bool;  (* yielded to the kernel while idle (Shenango) *)
  mutable idle_gen : int;  (* invalidates stale park timers *)
  mutable last_sched : Time.t;  (* last scheduling point (watchdog) *)
  mutable cursor : int;  (* persisted round-robin steal cursor (index) *)
  mutable fail_streak : int;  (* consecutive failed steal scans *)
  mutable pending_steal_cost : Time.t;  (* charged on the next dispatch *)
}

type t = {
  rc : Rc.t;
  cores : int array;
  cpus : cpu array;
  by_core : (int, cpu) Hashtbl.t;
  timer_hz : int;
  preemption : bool;
  park : (Time.t * Time.t) option;  (* (idle_after, resume_cost) *)
  mutable ticks : int;
  mutable rr_spawn : int;  (* round-robin spawn placement cursor *)
  mutable wake_rr : int;  (* rotating fallback for unmanaged wakers *)
  mutable steals : int;  (* successful steal-half grabs *)
  mutable stolen_tasks : int;  (* tasks migrated by those grabs *)
  mutable steal_fails : int;  (* full victim scans that found nothing *)
  mutable parks : int;
  mutable unparks : int;
  uvec_handlers : (int, int -> unit) Hashtbl.t;
}

let now t = Rc.now t.rc
let cpu_of t core = Hashtbl.find t.by_core core

let is_idle t ~core =
  match Hashtbl.find_opt t.by_core core with
  | Some cpu -> cpu.ex.Rc.current = None && not (Rc.unit_capped t.rc cpu.ex)
  | None -> false

let view t = Rc.view t.rc

(* ---- the steal-half policy ---------------------------------------------- *)

(* The deque discipline is the runtime, not a pluggable policy — but it is
   still installed through {!Rc.install_policy} so the congestion probe and
   queue-depth series instrument it exactly like the other runtimes'
   policies.  [sched_balance] moves the victim's tail half into the thief's
   deque and returns one task to run; the rest stay queued on the thief, so
   the instrumented queue count (one decrement per successful balance)
   remains exact. *)
let steal_ctor t quantum : Sched_ops.ctor =
 fun view ->
  let n = Array.length view.cores in
  let q core = (cpu_of t core).deque in
  let index = Hashtbl.create 32 in
  Array.iteri (fun i core -> Hashtbl.replace index core i) view.cores;
  let idx_of core = match Hashtbl.find_opt index core with Some i -> i | None -> 0 in
  {
    Sched_ops.policy_name =
      (match quantum with Some _ -> "worksteal-preemptive" | None -> "worksteal");
    task_init = ignore;
    task_terminate = ignore;
    task_enqueue =
      (fun ~cpu ~reason task ->
        match reason with
        | Sched_ops.Enq_preempted | Sched_ops.Enq_yielded ->
            Runqueue.push_tail (q cpu) task
        | Sched_ops.Enq_new | Sched_ops.Enq_woken -> Runqueue.push_head (q cpu) task);
    task_dequeue = (fun ~cpu -> Runqueue.pop_head (q cpu));
    task_block = (fun ~cpu:_ _ -> ());
    task_wakeup =
      (fun ~waker_cpu task ->
        let target =
          if Hashtbl.mem index waker_cpu then waker_cpu
          else begin
            let fallback = view.cores.(t.wake_rr mod n) in
            t.wake_rr <- (t.wake_rr + 1) mod n;
            Sched_ops.wakeup_to_idle_or view ~fallback
          end
        in
        Runqueue.push_head (q target) task;
        target);
    sched_timer_tick =
      (fun ~cpu task ->
        match quantum with
        | None -> false
        | Some quantum ->
            (not (Runqueue.is_empty (q cpu)))
            && view.now () - task.Task.run_start >= quantum);
    sched_balance =
      (fun ~cpu ->
        let thief = cpu_of t cpu in
        let self = idx_of cpu in
        let start = if thief.cursor >= 0 then thief.cursor else (self + 1) mod n in
        let stolen = ref None in
        let probes = ref 0 in
        let k = ref 0 in
        while !stolen = None && !k < n do
          let idx = (start + !k) mod n in
          if idx <> self then begin
            incr probes;
            let victim = q view.cores.(idx) in
            if not (Runqueue.is_empty victim) then begin
              let moved = Runqueue.steal_half ~from:victim ~into:thief.deque in
              t.steals <- t.steals + 1;
              t.stolen_tasks <- t.stolen_tasks + moved;
              thief.cursor <- (idx + 1) mod n;
              thief.pending_steal_cost <-
                thief.pending_steal_cost
                + (!probes * steal_probe_ns)
                + (moved * steal_task_ns);
              stolen := Runqueue.pop_head thief.deque
            end
          end;
          incr k
        done;
        if !stolen = None then begin
          t.steal_fails <- t.steal_fails + 1;
          thief.fail_streak <- thief.fail_streak + 1
        end;
        !stolen);
  }

(* ---- dispatch & the main loop ------------------------------------------ *)

let rec schedule t cpu ~prev =
  let rc = t.rc in
  if Rc.unit_capped rc cpu.ex then begin
    (* The broker took this core: it may not pick anything up.  Queued
       work is recovered by allowed cores' steals and kicks. *)
    cpu.ex.Rc.current <- None;
    cpu.idle_gen <- cpu.idle_gen + 1
  end
  else
    let pick () =
      (* BE-first inside the allowance, then the own deque, then steal. *)
      let be_next =
        if Rc.be_occupancy rc < rc.Rc.be_allowance then
          Runqueue.pop_head rc.Rc.be_queue
        else None
      in
      match be_next with
      | Some task -> Some task
      | None -> (
          match rc.Rc.policy.task_dequeue ~cpu:cpu.ex.Rc.exec_core with
          | Some task -> Some task
          | None -> rc.Rc.policy.sched_balance ~cpu:cpu.ex.Rc.exec_core)
    in
    match Rc.next_live rc pick with
    | None ->
        cpu.ex.Rc.current <- None;
        cpu.idle_gen <- cpu.idle_gen + 1;
        (match t.park with
        | Some (idle_after, _) ->
            if cpu.fail_streak >= storm_park_after then begin
              (* Scans keep coming up empty: park NOW rather than respin
                 the scan on every kick (the steal-storm brake). *)
              if not cpu.parked then begin
                cpu.parked <- true;
                t.parks <- t.parks + 1
              end
            end
            else
              let gen = cpu.idle_gen in
              ignore
                (Engine.after rc.Rc.engine idle_after (fun () ->
                     if
                       cpu.ex.Rc.current = None
                       && cpu.idle_gen = gen
                       && not cpu.parked
                     then begin
                       cpu.parked <- true;
                       t.parks <- t.parks + 1
                     end))
        | None -> ())
    | Some task ->
        let unpark_cost =
          if cpu.parked then begin
            cpu.parked <- false;
            t.unparks <- t.unparks + 1;
            match t.park with Some (_, resume_cost) -> resume_cost | None -> 0
          end
          else 0
        in
        cpu.fail_streak <- 0;
        let steal_cost = cpu.pending_steal_cost in
        cpu.pending_steal_cost <- 0;
        let same = match prev with Some p -> p == task | None -> false in
        let cost =
          if same then 0
          else if task.Task.app = cpu.ex.Rc.active_app then begin
            rc.Rc.switches <- rc.Rc.switches + 1;
            Costs.uthread_yield_ns
          end
          else Rc.app_switch rc cpu.ex task
        in
        dispatch t cpu task ~switch_cost:(cost + unpark_cost + steal_cost)

and dispatch t cpu (task : Task.t) ~switch_cost =
  cpu.last_sched <- now t;
  ignore (Rc.begin_run t.rc cpu.ex task ~switch_cost);
  Rc.run_after_switch t.rc cpu.ex task ~switch_cost

(* ---- preemption --------------------------------------------------------- *)

let preempt_current t cpu =
  match Rc.depose t.rc cpu.ex ~overhead:0 with
  | Some task ->
      t.rc.Rc.preempts <- t.rc.Rc.preempts + 1;
      if Rc.is_be t.rc task then begin
        t.rc.Rc.be_preempts <- t.rc.Rc.be_preempts + 1;
        Runqueue.push_head t.rc.Rc.be_queue task
      end
      else
        t.rc.Rc.policy.task_enqueue ~cpu:cpu.ex.Rc.exec_core
          ~reason:Sched_ops.Enq_preempted task;
      schedule t cpu ~prev:(Some task)
  | None -> ()

let steal_time ?(stall = false) t cpu cost =
  match cpu.ex.Rc.current with
  | Some task when not (Eventq.is_null cpu.ex.Rc.completion) ->
      Engine.cancel t.rc.Rc.engine cpu.ex.Rc.completion;
      task.Task.segment_end <- task.Task.segment_end + cost;
      if stall then task.Task.obs_stall_ns <- task.Task.obs_stall_ns + cost
      else task.Task.obs_overhead_ns <- task.Task.obs_overhead_ns + cost;
      Rc.arm_completion t.rc cpu.ex task
  | _ -> ()

let kick t cpu =
  if cpu.ex.Rc.current = None && not cpu.kick_pending then begin
    cpu.kick_pending <- true;
    (* A stolen core cannot react until the host kernel hands it back. *)
    let delay = max 0 (cpu.ex.Rc.stolen_until - now t) in
    ignore
      (Engine.after t.rc.Rc.engine delay (fun () ->
           cpu.kick_pending <- false;
           if cpu.ex.Rc.current = None then schedule t cpu ~prev:None))
  end

let kick_core t core = kick t (cpu_of t core)

let kick_some_idle t =
  match Sched_ops.pick_idle (view t) with Some core -> kick_core t core | None -> ()

(* Evict whatever runs on a broker-capped core: receive cost, depose, then
   requeue on an allowed core's deque and wake an allowed idle core. *)
let evict_capped t cpu =
  match cpu.ex.Rc.current with
  | Some _ when not (Eventq.is_null cpu.ex.Rc.completion) ->
      steal_time t cpu (Costs.uipi_receive_ns ~cross_numa:false);
      (match Rc.depose t.rc cpu.ex ~overhead:0 with
      | Some task ->
          t.rc.Rc.preempts <- t.rc.Rc.preempts + 1;
          if Rc.is_be t.rc task then begin
            t.rc.Rc.be_preempts <- t.rc.Rc.be_preempts + 1;
            Runqueue.push_head t.rc.Rc.be_queue task
          end
          else
            t.rc.Rc.policy.task_enqueue ~cpu:t.cores.(0)
              ~reason:Sched_ops.Enq_preempted task;
          schedule t cpu ~prev:(Some task);
          kick_some_idle t
      | None -> ())
  | _ -> ()

(* ---- the global user-interrupt handler (Listing 1) ---------------------- *)

let tick_decision t cpu =
  cpu.last_sched <- now t;
  if Rc.unit_capped t.rc cpu.ex then evict_capped t cpu
  else
    match cpu.ex.Rc.current with
    | Some task when not (Eventq.is_null cpu.ex.Rc.completion) ->
        if Rc.is_be t.rc task then begin
          if Rc.be_occupancy t.rc > t.rc.Rc.be_allowance then preempt_current t cpu
        end
        else if t.rc.Rc.policy.sched_timer_tick ~cpu:cpu.ex.Rc.exec_core task then
          preempt_current t cpu
    | _ -> kick t cpu

let on_tick t cpu =
  t.ticks <- t.ticks + 1;
  steal_time t cpu (Costs.user_timer_receive_ns + Costs.senduipi_sn_ns);
  tick_decision t cpu

let on_preempt_ipi t cpu =
  steal_time t cpu (Costs.uipi_receive_ns ~cross_numa:false);
  tick_decision t cpu

let uintr_handler t cpu ctx ~uvec =
  if uvec = Vectors.uvec_timer then begin
    if Machine.uintr_sn ctx then
      Machine.senduipi t.rc.Rc.machine ~src_core:cpu.ex.Rc.exec_core ctx
        ~uvec:Vectors.uvec_timer;
    on_tick t cpu
  end
  else if uvec = Vectors.uvec_preempt then on_preempt_ipi t cpu
  else
    match Hashtbl.find_opt t.uvec_handlers uvec with
    | Some handler ->
        steal_time t cpu (Costs.uipi_receive_ns ~cross_numa:false);
        handler cpu.ex.Rc.exec_core
    | None -> ()

(* ---- watchdog recovery --------------------------------------------------- *)

let rescue t cpu ~bound =
  Rc.rescued t.rc cpu.ex ~late:(max 0 (now t - cpu.last_sched - bound));
  steal_time t cpu (Costs.uipi_receive_ns ~cross_numa:false);
  if t.preemption then begin
    ignore
      (Kmod.timer_set_hz t.rc.Rc.kmod ~core:cpu.ex.Rc.exec_core ~hz:t.timer_hz);
    match Machine.uintr_installed t.rc.Rc.machine ~core:cpu.ex.Rc.exec_core with
    | Some ctx when Machine.uintr_sn ctx ->
        Machine.senduipi t.rc.Rc.machine ~src_core:cpu.ex.Rc.exec_core ctx
          ~uvec:Vectors.uvec_timer
    | Some _ | None -> ()
  end;
  preempt_current t cpu;
  cpu.last_sched <- now t

let watchdog_scan t ~bound =
  Array.iter
    (fun cpu ->
      match cpu.ex.Rc.current with
      | Some _
        when now t >= cpu.ex.Rc.stolen_until
             && (not
                   (Machine.interrupts_masked
                      (Machine.core t.rc.Rc.machine cpu.ex.Rc.exec_core)))
             && now t - cpu.last_sched > bound ->
          rescue t cpu ~bound
      | _ -> ())
    t.cpus

let on_core_steal t cpu ~duration =
  cpu.ex.Rc.stolen_until <- max cpu.ex.Rc.stolen_until (now t + duration);
  steal_time ~stall:true t cpu duration;
  cpu.last_sched <- max cpu.last_sched cpu.ex.Rc.stolen_until

(* ---- construction -------------------------------------------------------- *)

let register_kthread t app_id core =
  let kt = Rc.add_kthread t.rc ~app:app_id ~core in
  let cpu = cpu_of t core in
  let ctx = Kmod.uintr_ctx kt in
  Machine.uintr_register_handler ctx ~uinv:Vectors.uintr_notification
    (uintr_handler t cpu ctx);
  if t.preemption then begin
    Kmod.timer_enable t.rc.Rc.kmod kt;
    Machine.senduipi t.rc.Rc.machine ~src_core:core ctx ~uvec:Vectors.uvec_timer
  end;
  kt

let create machine kmod ~cores ?(timer_hz = 100_000) ?(preemption = true)
    ?quantum ?(park = default_park) ?watchdog () =
  if cores = [] then invalid_arg "Worksteal.create: no cores";
  (match watchdog with
  | Some bound when bound <= 0 ->
      invalid_arg "Worksteal.create: watchdog bound must be positive"
  | Some _ | None -> ());
  let cores_arr = Array.of_list cores in
  let cpus =
    Array.map
      (fun core_id ->
        {
          ex = Rc.make_exec core_id;
          deque = Runqueue.create ();
          kick_pending = false;
          parked = false;
          idle_gen = 0;
          last_sched = 0;
          cursor = -1;
          fail_streak = 0;
          pending_steal_cost = 0;
        })
      cores_arr
  in
  let t =
    {
      rc = Rc.create machine kmod;
      cores = cores_arr;
      cpus;
      by_core = Hashtbl.create 64;
      timer_hz;
      preemption;
      park;
      ticks = 0;
      rr_spawn = 0;
      wake_rr = 0;
      steals = 0;
      stolen_tasks = 0;
      steal_fails = 0;
      parks = 0;
      unparks = 0;
      uvec_handlers = Hashtbl.create 8;
    }
  in
  Array.iter (fun cpu -> Hashtbl.replace t.by_core cpu.ex.Rc.exec_core cpu) cpus;
  Rc.install_dispatch t.rc
    {
      Rc.d_name = "worksteal";
      d_units = Array.map (fun cpu -> cpu.ex) cpus;
      d_enqueue_cpu = (fun ex -> ex.Rc.exec_core);
      d_incoming_app = (fun _ -> -1);
      d_released = (fun _ -> ());
      d_reschedule =
        (fun ex ~prev -> schedule t (cpu_of t ex.Rc.exec_core) ~prev);
    };
  Rc.install_policy t.rc (steal_ctor t quantum);
  (* The daemon occupies every isolated core first (§4.1). *)
  Array.iter
    (fun core ->
      let kt = register_kthread t 0 core in
      ignore (Kmod.activate kmod kt))
    cores_arr;
  if preemption then
    Array.iter
      (fun core -> ignore (Kmod.timer_set_hz kmod ~core ~hz:timer_hz))
      cores_arr;
  Array.iter
    (fun cpu ->
      Kmod.on_steal kmod ~core:cpu.ex.Rc.exec_core (fun ~duration ->
          on_core_steal t cpu ~duration))
    t.cpus;
  Rc.start_watchdog t.rc ~bound:watchdog (fun ~bound -> watchdog_scan t ~bound);
  t

let create_app t ~name =
  let app = Rc.new_app t.rc ~name in
  Array.iter (fun core -> ignore (register_kthread t app.App.id core)) t.cores;
  app

(* ---- core allocation ----------------------------------------------------- *)

let set_be_allowance t n =
  let old = t.rc.Rc.be_allowance in
  t.rc.Rc.be_allowance <- n;
  if n < old then begin
    let excess = ref (Rc.be_occupancy t.rc - n) in
    Array.iter
      (fun cpu ->
        if !excess > 0 then
          match cpu.ex.Rc.current with
          | Some task
            when Rc.is_be t.rc task
                 && not (Eventq.is_null cpu.ex.Rc.completion) ->
              steal_time t cpu (Costs.uipi_receive_ns ~cross_numa:false);
              preempt_current t cpu;
              decr excess
          | _ -> ())
      t.cpus
  end
  else if n > old && not (Runqueue.is_empty t.rc.Rc.be_queue) then
    Array.iter (fun cpu -> if cpu.ex.Rc.current = None then kick t cpu) t.cpus

let set_core_allowance t n =
  let n = max 0 n in
  let old = t.rc.Rc.core_allowance in
  Rc.set_core_allowance t.rc n;
  if n < old then
    Array.iter
      (fun cpu -> if Rc.unit_capped t.rc cpu.ex then evict_capped t cpu)
      t.cpus
  else if n > old then
    Array.iter
      (fun cpu ->
        if (not (Rc.unit_capped t.rc cpu.ex)) && cpu.ex.Rc.current = None then
          kick t cpu)
      t.cpus

let core_allowance t = t.rc.Rc.core_allowance
let congestion t = Rc.congestion t.rc

let attach_be_app t ?alloc app ~chunk ~workers =
  Rc.spawn_be_workers t.rc app ~chunk ~workers ~who:"Worksteal.attach_be_app";
  let cfg = match alloc with Some a -> a | None -> Allocator.default_config () in
  let on_event (ev : Allocator.event) =
    let kind =
      match ev.Allocator.action with
      | Allocator.Granted -> Trace.Core_grant
      | Allocator.Reclaimed | Allocator.Yielded -> Trace.Core_reclaim
      | Allocator.Degraded -> Trace.Alloc_degrade
      | Allocator.Recovered -> Trace.Alloc_recover
    in
    Rc.trace_instant t.rc ~core:t.cores.(0) kind
      (Printf.sprintf "%s=%d" ev.Allocator.app_name ev.Allocator.granted)
  in
  Rc.start_allocator t.rc ~cfg ~be:app ~on_event
    ~set_allowance:(set_be_allowance t);
  Array.iter (fun cpu -> if cpu.ex.Rc.current = None then kick t cpu) t.cpus

let allocator t = t.rc.Rc.allocator
let be_preemptions t = t.rc.Rc.be_preempts

let pick_spawn_cpu t =
  match Sched_ops.pick_idle (view t) with
  | Some core -> core
  | None ->
      let core = t.cores.(t.rr_spawn mod Array.length t.cores) in
      t.rr_spawn <- t.rr_spawn + 1;
      core

(* ---- deadlines ----------------------------------------------------------- *)

let kill t ?on_drop task = Rc.kill t.rc ?on_drop task

let spawn t app ~name ?cpu ?arrival ?service ?(record = true) ?deadline ?on_drop
    body =
  let arrival = match arrival with Some a -> a | None -> now t in
  let service = match service with Some s -> s | None -> 0 in
  let task = Rc.admit t.rc app ~name ~arrival ~service ~record body in
  let target = match cpu with Some c -> c | None -> pick_spawn_cpu t in
  task.Task.last_core <- target;
  t.rc.Rc.policy.task_init task;
  t.rc.Rc.policy.task_enqueue ~cpu:target ~reason:Sched_ops.Enq_new task;
  if is_idle t ~core:target then kick_core t target else kick_some_idle t;
  (match deadline with
  | Some d ->
      Rc.arm_deadline t.rc ?on_drop task ~deadline:d
        ~err:"Worksteal.spawn: deadline must be positive"
  | None -> ());
  task

let rec fault_current t ~core ~duration =
  if duration <= 0 then
    invalid_arg "Worksteal.fault_current: duration must be positive";
  let cpu = cpu_of t core in
  match cpu.ex.Rc.current with
  | Some task when not (Eventq.is_null cpu.ex.Rc.completion) ->
      Engine.cancel t.rc.Rc.engine cpu.ex.Rc.completion;
      cpu.ex.Rc.completion <- Eventq.null;
      let remaining = max 0 (task.Task.segment_end - now t) in
      task.Task.body <- Coro.Compute (remaining, task.Task.cont);
      task.Task.state <- Task.Blocked;
      Rc.account t.rc cpu.ex;
      cpu.ex.Rc.current <- None;
      task.Task.obs_block_at <- now t;
      if not (Rc.is_be t.rc task) then t.rc.Rc.policy.task_block ~cpu:core task;
      Rc.trace_instant t.rc ~core Trace.Fault task.Task.name;
      ignore (Engine.after t.rc.Rc.engine duration (fun () -> wakeup_task t task));
      schedule t cpu ~prev:(Some task);
      true
  | _ -> false

and wakeup_task t ?waker_cpu task =
  Rc.awaken t.rc task ~place:(fun (task : Task.t) ->
      if Rc.is_be t.rc task then begin
        Runqueue.push_tail t.rc.Rc.be_queue task;
        if is_idle t ~core:task.Task.last_core then
          kick_core t task.Task.last_core
        else kick_some_idle t
      end
      else
        let waker_cpu =
          match waker_cpu with Some c when c >= 0 -> c | _ -> task.Task.last_core
        in
        let target = t.rc.Rc.policy.task_wakeup ~waker_cpu task in
        if is_idle t ~core:target then kick_core t target else kick_some_idle t)

let wakeup t ?(waker_cpu = -1) (task : Task.t) = wakeup_task t ~waker_cpu task

let start_utimer t ~src_core ~hz =
  if hz <= 0 then invalid_arg "Worksteal.start_utimer: hz must be positive";
  let period = max 1 (1_000_000_000 / hz) in
  Engine.every t.rc.Rc.engine ~period (fun () ->
      Array.iter
        (fun dst_core ->
          match Machine.uintr_installed t.rc.Rc.machine ~core:dst_core with
          | Some ctx ->
              Machine.senduipi t.rc.Rc.machine ~src_core ctx
                ~uvec:Vectors.uvec_preempt
          | None -> ())
        t.cores;
      true)

let register_uvec t ~uvec handler =
  if uvec = Vectors.uvec_timer || uvec = Vectors.uvec_preempt then
    invalid_arg "Worksteal.register_uvec: reserved uvec";
  Hashtbl.replace t.uvec_handlers uvec handler

let preempt_core t ~src_core ~dst_core =
  match Machine.uintr_installed t.rc.Rc.machine ~core:dst_core with
  | Some ctx ->
      Machine.senduipi t.rc.Rc.machine ~src_core ctx ~uvec:Vectors.uvec_preempt
  | None -> ()

let current t ~core = (cpu_of t core).ex.Rc.current

let wakeup_hist t = t.rc.Rc.wakeups

let queue_depth_series t = t.rc.Rc.queue_depth
let task_switches t = t.rc.Rc.switches
let app_switches t = t.rc.Rc.app_switches
let preemptions t = t.rc.Rc.preempts
let timer_ticks t = t.ticks
let watchdog_rescues t = t.rc.Rc.rescues
let rescue_detection t = t.rc.Rc.rescue_detect
let deadline_drops t = t.rc.Rc.deadline_drops
let total_busy_ns t = Rc.total_busy_ns t.rc
let apps t = t.rc.Rc.apps
let set_trace t trace = t.rc.Rc.trace <- Some trace
let steals t = t.steals
let stolen_tasks t = t.stolen_tasks
let steal_fails t = t.steal_fails
let parks t = t.parks
let unparks t = t.unparks

let register_metrics t ?(labels = []) reg =
  let rc = t.rc in
  let c name help read = Registry.counter reg ~help ~labels name read in
  c "skyloft_worksteal_task_switches_total" "Intra-application task switches"
    (fun () -> rc.Rc.switches);
  c "skyloft_worksteal_app_switches_total"
    "Cross-application kthread switches through the kernel module" (fun () ->
      rc.Rc.app_switches);
  c "skyloft_worksteal_preemptions_total" "Tasks preempted off their core"
    (fun () -> rc.Rc.preempts);
  c "skyloft_worksteal_be_preemptions_total" "Best-effort tasks preempted"
    (fun () -> rc.Rc.be_preempts);
  c "skyloft_worksteal_timer_ticks_total" "User-space timer interrupts handled"
    (fun () -> t.ticks);
  c "skyloft_worksteal_steals_total" "Successful steal-half grabs" (fun () ->
      t.steals);
  c "skyloft_worksteal_stolen_tasks_total" "Tasks migrated by steals" (fun () ->
      t.stolen_tasks);
  c "skyloft_worksteal_steal_fails_total" "Victim scans that found nothing"
    (fun () -> t.steal_fails);
  c "skyloft_worksteal_parks_total" "Idle cores parked to the kernel" (fun () ->
      t.parks);
  c "skyloft_worksteal_unparks_total" "Parked cores woken for new work"
    (fun () -> t.unparks);
  c "skyloft_worksteal_watchdog_rescues_total" "Stuck cores rescued" (fun () ->
      rc.Rc.rescues);
  c "skyloft_worksteal_deadline_drops_total" "Tasks killed at their deadline"
    (fun () -> rc.Rc.deadline_drops);
  Registry.gauge reg ~labels "skyloft_worksteal_be_allowance"
    ~help:"Cores the best-effort application may occupy" (fun () ->
      float_of_int rc.Rc.be_allowance);
  Registry.histogram reg ~labels "skyloft_worksteal_wakeup_latency_ns"
    ~help:"Wakeup-to-dispatch latency" (wakeup_hist t);
  Registry.histogram reg ~labels "skyloft_worksteal_rescue_detection_ns"
    ~help:"Watchdog detection latency past the bound" rc.Rc.rescue_detect;
  Registry.series reg ~labels "skyloft_worksteal_queue_depth"
    ~help:"LC policy queue length" rc.Rc.queue_depth;
  Rc.register_app_metrics rc ~labels reg
