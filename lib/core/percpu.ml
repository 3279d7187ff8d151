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

(* The per-CPU runtime is Runtime_core plus the shared per-core path
   ({!Percore}: schedule, kicks, preemption, the tick decision, parking)
   on every managed core, all the time.  What this module adds is the
   hardware wiring — delegated LAPIC timers and UINTR handlers
   (Listing 1), the utimer and device vectors — the watchdog rescue that
   re-arms a lost timer, and placement.  How work moves between cores
   (including what a steal costs and when an idle core parks early) is
   the policy's. *)

type t = {
  rc : Rc.t;
  pc : Percore.t;
  cores : int array;
  timer_hz : int;
  preemption : bool;
  mutable rr_spawn : int;  (* round-robin spawn placement cursor *)
  uvec_handlers : (int -> unit) option array;
      (* user-delegated device interrupts: uvec (0-63, the PIR's bit
         index) -> handler (gets core id) *)
}

let runtime t = t.rc
let now t = Rc.now t.rc
let cpu_of t core = Percore.cpu_of t.pc core

(* ---- the global user-interrupt handler (Listing 1) ---------------------- *)

let uintr_handler t (cpu : Percore.cpu) ctx ~uvec =
  if uvec = Vectors.uvec_timer then begin
    (* Reset UPID.PIR so the next hardware timer interrupt is recognised
       (Listing 1 line 5) — only on a timer-delegated context (SN set). *)
    if Machine.uintr_sn ctx then
      Machine.senduipi t.rc.Rc.machine ~src_core:cpu.ex.Rc.exec_core ctx
        ~uvec:Vectors.uvec_timer;
    Percore.on_tick t.pc cpu
  end
  else if uvec = Vectors.uvec_preempt then begin
    Percore.steal_time t.pc cpu (Costs.uipi_receive_ns ~cross_numa:false);
    Percore.tick_decision t.pc cpu
  end
  else
    (* Delegated peripheral interrupt (§6): charge the receive overhead and
       run the registered driver handler in user space. *)
    match t.uvec_handlers.(uvec) with
    | Some handler ->
        Percore.steal_time t.pc cpu (Costs.uipi_receive_ns ~cross_numa:false);
        handler cpu.ex.Rc.exec_core
    | None -> ()

(* ---- watchdog recovery --------------------------------------------------- *)

(* No scheduling point on this core within the bound: the timer delegation
   was lost (dropped notification, PIR never re-primed) or the current task
   is stuck.  The rescue is what the daemon would do from a healthy core —
   a rescue user IPI (receive cost charged), the LAPIC timer re-armed and
   the PIR re-primed so future ticks are recognised again, then a forced
   preemption so queued work gets the core. *)
let rescue t (cpu : Percore.cpu) ~bound =
  Rc.rescued t.rc cpu.ex ~late:(Int.max 0 (now t - cpu.last_sched - bound));
  Percore.steal_time t.pc cpu (Costs.uipi_receive_ns ~cross_numa:false);
  if t.preemption then begin
    ignore
      (Kmod.timer_set_hz t.rc.Rc.kmod ~core:cpu.ex.Rc.exec_core ~hz:t.timer_hz);
    match Machine.uintr_installed t.rc.Rc.machine ~core:cpu.ex.Rc.exec_core with
    | Some ctx when Machine.uintr_sn ctx ->
        Machine.senduipi t.rc.Rc.machine ~src_core:cpu.ex.Rc.exec_core ctx
          ~uvec:Vectors.uvec_timer
    | Some _ | None -> ()
  end;
  Percore.preempt t.pc cpu;
  cpu.last_sched <- now t

let watchdog_scan t ~bound =
  Array.iter
    (fun (cpu : Percore.cpu) ->
      match cpu.ex.Rc.current with
      | Some _
        when now t >= cpu.ex.Rc.stolen_until
             && (not
                   (Machine.interrupts_masked
                      (Machine.core t.rc.Rc.machine cpu.ex.Rc.exec_core)))
             && now t - cpu.last_sched > bound ->
          rescue t cpu ~bound
      | _ -> ())
    t.pc.Percore.cpus

(* The host kernel stole this core: the running segment makes no progress
   for the outage, and wake-up kicks defer until hand-back.  Deferred
   interrupt vectors replay at unmask (the {!Machine} mask model), so a
   queued tick re-preempts promptly once the core returns. *)
let on_core_steal t (cpu : Percore.cpu) ~duration =
  cpu.ex.Rc.stolen_until <- Int.max cpu.ex.Rc.stolen_until (now t + duration);
  Percore.steal_time ~stall:true t.pc cpu duration;
  cpu.last_sched <- Int.max cpu.last_sched cpu.ex.Rc.stolen_until

(* ---- core allocation ----------------------------------------------------- *)

(* The instant's name is formatted only when a trace will keep it. *)
let alloc_instant t (ev : Allocator.event) kind =
  if Option.is_some t.rc.Rc.trace then
    Rc.trace_instant t.rc ~core:t.cores.(0) kind
      (Printf.sprintf "%s=%d" ev.name ev.granted)

(* The broker's tenant actions never come from a runtime's allocator. *)
let alloc_event t (ev : Allocator.event) =
  match ev.action with
  | Allocator.Grant -> alloc_instant t ev Trace.Core_grant
  | Allocator.Reclaim | Allocator.Yield -> alloc_instant t ev Trace.Core_reclaim
  | Allocator.Degrade -> alloc_instant t ev Trace.Alloc_degrade
  | Allocator.Recover -> alloc_instant t ev Trace.Alloc_recover
  | Allocator.Quarantine | Allocator.Release | Allocator.Crash -> ()

(* ---- placement ----------------------------------------------------------- *)

let pick_spawn_cpu t =
  match Rc.first_idle_slot t.rc with
  | -1 ->
      let core = t.cores.(t.rr_spawn mod Array.length t.cores) in
      t.rr_spawn <- t.rr_spawn + 1;
      core
  | s -> t.cores.(s)

(* Kick [core] if it idles, else whichever core does. *)
let kick_toward t core =
  if Rc.is_idle t.rc core then Percore.kick t.pc (cpu_of t core)
  else Percore.kick_some_idle t.pc

let place t (task : Task.t) ~cpu =
  let target = match cpu with Some c -> c | None -> pick_spawn_cpu t in
  task.Task.last_core <- target;
  t.rc.Rc.policy.task_init task;
  Rc.enqueue t.rc ~cpu:target ~reason:Sched_ops.Enq_new task;
  kick_toward t target

let wake t (task : Task.t) ~waker_cpu =
  let waker_cpu = if waker_cpu >= 0 then waker_cpu else task.Task.last_core in
  kick_toward t (Rc.place_woken t.rc ~waker_cpu task)

(* ---- construction -------------------------------------------------------- *)

(* Wire a kthread just parked on [cpu]'s core into the UINTR path. *)
let setup_kthread t (cpu : Percore.cpu) kt =
  let core = cpu.ex.Rc.exec_core in
  let ctx = Kmod.uintr_ctx kt in
  Machine.uintr_register_handler ctx ~uinv:Vectors.uintr_notification
    (uintr_handler t cpu ctx);
  if t.preemption then begin
    (* §3.2 timer delegation: UINV <- timer vector, SN <- 1 (kernel module),
       then prime the PIR with a suppressed self-SENDUIPI so the first
       hardware timer interrupt is recognised in user space. *)
    Kmod.timer_enable t.rc.Rc.kmod kt;
    Machine.senduipi t.rc.Rc.machine ~src_core:core ctx ~uvec:Vectors.uvec_timer
  end

let create machine kmod ~cores ?(timer_hz = 100_000) ?(preemption = true) ?park
    ?watchdog ctor =
  if cores = [] then invalid_arg "Percpu.create: no cores";
  if timer_hz <= 0 then invalid_arg "Percpu.create: timer_hz must be positive";
  (match watchdog with
  | Some bound when bound <= 0 ->
      invalid_arg "Percpu.create: watchdog bound must be positive"
  | Some _ | None -> ());
  let cores_arr = Array.of_list cores in
  let rc = Rc.create machine kmod in
  let pc = Percore.create rc ~cores:cores_arr ~quantum:0 ~park in
  let t =
    {
      rc;
      pc;
      cores = cores_arr;
      timer_hz;
      preemption;
      rr_spawn = 0;
      uvec_handlers = Array.make 64 None;
    }
  in
  let on_cpu f ex = f (Percore.cpu_of_unit pc ex) in
  Rc.install_dispatch rc
    {
      Rc.d_name = "percpu";
      d_units = Array.map (fun (cpu : Percore.cpu) -> cpu.ex) pc.Percore.cpus;
      d_pinnable = true;
      d_enqueue_cpu = (fun ex -> ex.Rc.exec_core);
      d_released = ignore;
      d_reschedule =
        (fun ex ~prev -> Percore.schedule pc (Percore.cpu_of_unit pc ex) ~prev);
      d_place = place t;
      d_wake = wake t;
      d_kthread = (fun ex kt -> on_cpu (fun cpu -> setup_kthread t cpu kt) ex);
      d_evict = on_cpu (Percore.evict pc);
      d_redrive = on_cpu (Percore.kick pc);
      d_preempt_be = on_cpu (Percore.preempt_be pc);
      d_be_grown =
        (fun () -> if not (Runqueue.is_empty rc.Rc.be_queue) then Percore.kick_idle pc);
      d_alloc_event = alloc_event t;
      d_be_attached = (fun () -> Percore.kick_idle pc);
    };
  Rc.install_policy t.rc ctor;
  Rc.activate_daemon t.rc;
  if preemption then
    Array.iter
      (fun core -> ignore (Kmod.timer_set_hz kmod ~core ~hz:timer_hz))
      cores_arr;
  (* React to host-kernel core steals (lib/fault's imperfect isolation). *)
  Array.iter
    (fun (cpu : Percore.cpu) ->
      Kmod.on_steal kmod ~core:cpu.ex.Rc.exec_core (fun ~duration ->
          on_core_steal t cpu ~duration))
    pc.Percore.cpus;
  Rc.start_watchdog t.rc ~bound:watchdog (fun ~bound -> watchdog_scan t ~bound);
  Rc.add_metrics t.rc (fun labels reg ->
      let c name help read = Registry.counter reg ~help ~labels name read in
      c "skyloft_percpu_parks_total" "Idle cores parked to the kernel" (fun () ->
          pc.Percore.parks);
      c "skyloft_percpu_unparks_total" "Parked cores woken for new work"
        (fun () -> pc.Percore.unparks));
  t

(* ---- mechanism-specific operations -------------------------------------- *)

(* A dedicated core emulating a timer by broadcasting user IPIs to every
   worker core (the "utimer" of §5.3/§5.4).  Needs [preemption:false] so
   the receiver contexts keep the plain notification vector: a
   timer-delegated context's UINV is the timer vector. *)
let start_utimer t ~src_core ~hz =
  if hz <= 0 then invalid_arg "Percpu.start_utimer: hz must be positive";
  if t.preemption then
    invalid_arg "Percpu.start_utimer: requires ~preemption:false";
  let period = Int.max 1 (1_000_000_000 / hz) in
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
    invalid_arg "Percpu.register_uvec: reserved uvec";
  if uvec < 0 || uvec >= Array.length t.uvec_handlers then
    invalid_arg "Percpu.register_uvec: uvec out of 0-63";
  t.uvec_handlers.(uvec) <- Some handler

let preempt_core t ~src_core ~dst_core =
  match Machine.uintr_installed t.rc.Rc.machine ~core:dst_core with
  | Some ctx ->
      Machine.senduipi t.rc.Rc.machine ~src_core ctx ~uvec:Vectors.uvec_preempt
  | None -> ()

let current t ~core = (cpu_of t core).Percore.ex.Rc.current
let is_idle t ~core = Rc.is_idle t.rc core
let parks t = t.pc.Percore.parks
let unparks t = t.pc.Percore.unparks
