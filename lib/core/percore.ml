module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Costs = Skyloft_hw.Costs
module Kmod = Skyloft_kernel.Kmod
module Rc = Runtime_core

(* The per-core mechanism (Figure 2a), once for {!Percpu} and {!Hybrid}'s
   percore mode; the two differ only by the values documented in the
   interface, never by a branch on who is calling. *)

type cpu = {
  ex : Rc.exec;
  kick_timer : Engine.timer;  (* its stable callback is [kick_fire] *)
  park_timer : Engine.timer;  (* the grace period; callback [park_fire] *)
  mutable kick_pending : bool;
  mutable parked : bool;
  mutable idle_gen : int;
  mutable park_gen : int;  (* [idle_gen] when the grace period began *)
  mutable last_sched : Time.t;
}

type t = {
  rc : Rc.t;
  cpus : cpu array;
  quantum : Time.t;
  park : (Time.t * Time.t) option;
  mutable parks : int;
  mutable unparks : int;
}

let now t = Rc.now t.rc
let stolen_until t cpu = Kmod.stolen_until (Rc.kmod t.rc) ~core:(Rc.exec_core cpu.ex)
let ex cpu = cpu.ex
let last_sched cpu = cpu.last_sched
let sched_point cpu ~at = cpu.last_sched <- Int.max cpu.last_sched at
let cpus t = t.cpus
let parks t = t.parks
let unparks t = t.unparks

let park t cpu =
  if not cpu.parked then begin
    cpu.parked <- true;
    t.parks <- t.parks + 1
  end

(* Through [d_reschedule]: the hybrid may have flipped back to its
   dispatcher by the time the kick lands. *)
let kick_fire t cpu () =
  cpu.kick_pending <- false;
  if Rc.current cpu.ex == Task.nil then
    (Rc.dispatch t.rc).Rc.d_reschedule cpu.ex ~prev:Task.nil

(* The grace period ran out with the core still idle since it began. *)
let park_fire t cpu () =
  if Rc.current cpu.ex == Task.nil && cpu.idle_gen = cpu.park_gen then park t cpu

let create rc ~cores ~quantum ~park =
  let cpus =
    Array.map
      (fun core ->
        {
          ex = Rc.make_exec core;
          kick_timer = Engine.timer (Rc.engine rc) ignore;
          park_timer = Engine.timer (Rc.engine rc) ignore;
          kick_pending = false;
          parked = false;
          idle_gen = 0;
          park_gen = 0;
          last_sched = 0;
        })
      cores
  in
  let t = { rc; cpus; quantum; park; parks = 0; unparks = 0 } in
  Array.iter
    (fun cpu ->
      Engine.set_callback cpu.kick_timer (kick_fire t cpu);
      Engine.set_callback cpu.park_timer (park_fire t cpu))
    cpus;
  t

(* [cpus] is the runtime's [d_units], so a unit's slot indexes both. *)
let cpu_of t core =
  match Rc.slot_of_core t.rc core with -1 -> raise Not_found | s -> t.cpus.(s)
let cpu_of_unit t (ex : Rc.exec) = t.cpus.(Rc.exec_slot ex)
let in_flight cpu = Rc.incoming cpu.ex >= 0

(* ---- the scheduling loop ------------------------------------------------- *)

(* Nothing to run.  Shenango-style runtimes return idle cores to the
   kernel — after a grace period, or at once when the policy asks — and
   waking a parked core later costs a kernel wakeup.  A new grace period
   supersedes the pending one, which could no longer park the core. *)
let idle t cpu =
  cpu.idle_gen <- cpu.idle_gen + 1;
  match t.park with
  | Some _ when (Rc.policy t.rc).sched_idle_park ~cpu:(Rc.exec_core cpu.ex) ->
      park t cpu
  | Some (idle_after, _) ->
      cpu.park_gen <- cpu.idle_gen;
      Engine.arm cpu.park_timer ~at:(now t + idle_after)
  | None -> ()

let unpark_cost t cpu =
  match t.park with
  | Some (_, resume_cost) when cpu.parked ->
      cpu.parked <- false;
      t.unparks <- t.unparks + 1;
      resume_cost
  | Some _ | None -> 0

(* Cores inside the allocator's BE grant dispatch BE work ahead of LC so
   a guaranteed core cannot be starved by LC backlog; LC congestion claws
   cores back through the allocator shrinking the allowance.  A capped
   core's queued work is recovered by allowed cores' steals and kicks. *)
let pick rc ~core =
  match if Rc.be_occupancy rc < Rc.be_allowance rc then Rc.next_be rc else None with
  | Some _ as be -> be
  | None -> Rc.next_lc rc ~cpu:core ~balance:true

let schedule t cpu ~prev =
  let rc = t.rc in
  if Rc.current cpu.ex != Task.nil || in_flight cpu then ()
  else if Rc.unit_capped rc cpu.ex then cpu.idle_gen <- cpu.idle_gen + 1
  else
    let core = Rc.exec_core cpu.ex in
    match pick rc ~core with
    | None -> idle t cpu
    | Some task ->
        let unpark_cost = unpark_cost t cpu in
        let charge = (Rc.policy rc).sched_migration_charge ~cpu:core in
        let cost =
          if prev == task then 0
          else if task.Task.app = Rc.active_app cpu.ex then begin
            Rc.count_task_switch rc;
            Costs.uthread_yield_ns
          end
          else Rc.app_switch rc cpu.ex task
        in
        let switch_cost = cost + unpark_cost + charge in
        cpu.last_sched <- now t;
        ignore (Rc.begin_run rc cpu.ex task ~switch_cost);
        Rc.run_after_switch rc cpu.ex ~switch_cost

let steal_time ?(stall = false) cpu cost =
  let task = Rc.current cpu.ex in
  if task != Task.nil && Engine.armed (Rc.completion cpu.ex) then begin
    task.Task.segment_end <- task.Task.segment_end + cost;
    if stall then task.Task.obs_stall_ns <- task.Task.obs_stall_ns + cost
    else task.Task.obs_overhead_ns <- task.Task.obs_overhead_ns + cost;
    Engine.arm (Rc.completion cpu.ex) ~at:task.Task.segment_end
  end

(* ---- kicks --------------------------------------------------------------- *)

(* [kick_pending] coalesces kicks, so the cpu's timer is never re-armed
   while a kick is pending. *)
let kick t cpu =
  if Rc.current cpu.ex == Task.nil && (not cpu.kick_pending) && not (in_flight cpu)
  then begin
    cpu.kick_pending <- true;
    Engine.arm cpu.kick_timer ~at:(Int.max (now t) (stolen_until t cpu))
  end

let kick_idle t = Array.iter (kick t) t.cpus

let kick_some_idle t =
  match Rc.first_idle_slot t.rc with -1 -> () | s -> kick t t.cpus.(s)

(* ---- preemption ---------------------------------------------------------- *)

let requeue t (task : Task.t) ~cpu =
  Rc.count_preemption t.rc task;
  Rc.enqueue t.rc ~cpu ~reason:Sched_ops.Enq_preempted task

(* Synchronous: the handler already charged the receive cost. *)
let preempt t cpu =
  match Rc.depose t.rc cpu.ex ~overhead:0 with
  | Some task ->
      requeue t task ~cpu:((Rc.dispatch t.rc).Rc.d_enqueue_cpu cpu.ex);
      schedule t cpu ~prev:task
  | None -> ()

(* Never requeue on the capped core's own queue: with the core gone
   nothing local would drain it. *)
let evict t cpu =
  if Rc.current cpu.ex != Task.nil && Engine.armed (Rc.completion cpu.ex) then begin
    steal_time cpu (Costs.uipi_receive_ns ~cross_numa:false);
    match Rc.depose t.rc cpu.ex ~overhead:0 with
    | Some task ->
        requeue t task ~cpu:((Rc.dispatch t.rc).Rc.d_enqueue_cpu t.cpus.(0).ex);
        schedule t cpu ~prev:task;
        kick_some_idle t
    | None -> ()
  end

let preempt_be t cpu =
  Rc.is_be t.rc (Rc.current cpu.ex)
  && Engine.armed (Rc.completion cpu.ex)
  && begin
       steal_time cpu (Costs.uipi_receive_ns ~cross_numa:false);
       preempt t cpu;
       true
     end

(* ---- the timer tick (Listing 1) ------------------------------------------ *)

(* A capped core only enforces the cap (backstop for a task that slipped
   in around a shrink).  LC congestion is not checked here: the allocator
   shrinks the BE allowance in response, so the allowance is the single
   arbiter of BE occupancy. *)
let tick_decision t cpu =
  cpu.last_sched <- now t;
  if Rc.unit_capped t.rc cpu.ex then evict t cpu
  else
    let task = Rc.current cpu.ex in
    if task == Task.nil || not (Engine.armed (Rc.completion cpu.ex)) then kick t cpu
    else if Rc.is_be t.rc task then begin
      if Rc.be_occupancy t.rc > Rc.be_allowance t.rc then preempt t cpu
    end
    else if
      (* The policy gets first say; single-queue policies written for a
         dispatcher leave ticks alone, so [quantum] makes the tick
         timeshare exactly like the dispatcher's quantum IPI. *)
      (Rc.policy t.rc).sched_timer_tick ~cpu:(Rc.exec_core cpu.ex) task
      || (t.quantum > 0 && now t - task.Task.run_start >= t.quantum)
    then preempt t cpu

let on_tick t cpu =
  Rc.count_tick t.rc;
  steal_time cpu (Costs.user_timer_receive_ns + Costs.senduipi_sn_ns);
  tick_decision t cpu
