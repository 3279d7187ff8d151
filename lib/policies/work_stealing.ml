module Time = Skyloft_sim.Time
module Costs = Skyloft_hw.Costs
module Task = Skyloft.Task
module Sched_ops = Skyloft.Sched_ops
module Deques = Skyloft.Deques
module Registry = Skyloft_obs.Registry

(** Work stealing, Shenango-style (§5.3), in cooperative and preemptive
    variants, with a steal-one and a steal-half balance.

    Each core owns a deque: the owner pushes and pops at the head (locality)
    while idle cores steal from the tail of a victim scanned round-robin.
    Woken tasks land on the waking core's queue.  The preemptive variant is
    the paper's punchline for RocksDB: {e without modifying the policy}, the
    user-space timer tick preempts any request that has run longer than the
    quantum, breaking head-of-line blocking for 591 µs scans while 0.95 µs
    GETs wait (Figure 8b).  [quantum = None] is plain Shenango-style
    cooperative work stealing (used for Memcached, Figure 8a). *)

(* Probing a victim's deque reads a remotely owned cacheline. *)
let steal_probe_ns = Time.of_cycles Costs.remote_cacheline

(* A migrated task's descriptor + hot stack lines move to the thief. *)
let steal_task_ns = Time.of_cycles (2 * Costs.remote_cacheline)

(* Consecutive failed scans before an idle core parks without grace. *)
let storm_park_after = 2

let park = (Time.us 5, Costs.linux_wakeup_switch_ns + Time.us 1)

type stats = {
  mutable steals : int;
  mutable stolen_tasks : int;
  mutable steal_fails : int;
}

(* The deques, indexed by a core's position ([Sched_ops.index_of]); the
   cursors and the victim scan are {!Skyloft.Deques}'. *)
type deques = {
  view : Sched_ops.view;
  n : int;
  dq : Deques.t;
  mutable wake_rr : int;
      (* rotation point for wakeups from unmanaged cores when nobody is
         idle *)
}

let deques (view : Sched_ops.view) =
  let n = Array.length view.cores in
  { view; n; dq = Deques.create n; wake_rr = 0 }

let index d cpu =
  let i = Sched_ops.index_of d.view cpu in
  if i >= 0 then i else invalid_arg "work_stealing: unmanaged cpu"

(* Everything but the balance is shared by both variants. *)
let instance ?quantum d ~sched_balance ~sched_migration_charge ~sched_idle_park =
  let view = d.view in
  {
    Sched_ops.task_init = ignore;
    task_terminate = ignore;
    task_enqueue =
      (fun ~cpu ~reason task ->
        match reason with
        (* A preempted or yielded task goes to the tail so queued short
           work runs first... *)
        | Sched_ops.Enq_preempted | Sched_ops.Enq_yielded ->
            Deques.push_tail d.dq (index d cpu) task
        (* ...while the owner pushes fresh tasks at the head, as
           [task_wakeup] does woken ones (LIFO locality: the newest
           task's state is hottest in cache). *)
        | Sched_ops.Enq_new ->
            Deques.push_head d.dq (index d cpu) task);
    task_dequeue = (fun ~cpu -> Deques.pop_head d.dq (index d cpu));
    task_block = (fun ~cpu:_ _ -> ());
    task_wakeup =
      (fun ~waker_cpu task ->
        let target =
          if Sched_ops.index_of view waker_cpu >= 0 then waker_cpu
          else begin
            (* Unmanaged waker: prefer an idle core, else rotate the
               fallback so repeated wakeups do not hot-spot core 0. *)
            let fallback = view.cores.(d.wake_rr mod d.n) in
            d.wake_rr <- (d.wake_rr + 1) mod d.n;
            Sched_ops.wakeup_to_idle_or view ~fallback
          end
        in
        Deques.push_head d.dq (index d target) task;
        target);
    sched_timer_tick =
      (fun ~cpu task ->
        match quantum with
        | None -> false
        | Some quantum ->
            (* Preempting with an empty local queue would only reschedule
               the same task; skip the churn. *)
            (not (Deques.is_empty d.dq (index d cpu)))
            && view.now () - task.Task.run_start >= quantum);
    sched_balance;
    sched_migration_charge;
    sched_idle_park;
  }

let create ?quantum () : Sched_ops.ctor =
 fun view ->
  let d = deques view in
  instance ?quantum d
    ~sched_balance:(fun ~cpu ->
      let idx = Deques.victim d.dq ~self:(index d cpu) in
      if idx < 0 then None else Deques.pop_tail d.dq idx)
    ~sched_migration_charge:Sched_ops.no_migration_charge
    ~sched_idle_park:Sched_ops.park_after_grace

(* Steal-half: the thief moves the victim's tail half into its own deque
   and runs one task; the rest stay queued on the thief, so the runtime's
   LC queue count (one decrement per successful balance) stays
   exact.  Stealing is not free: every probed victim deque costs a remote
   cacheline touch and every migrated task drags its state across cores,
   both charged on the thief's next dispatch.  A thief whose scans keep
   coming up empty asks to park at once rather than respin the scan on
   every kick (the steal-storm brake). *)
let steal_half ?quantum () : Sched_ops.ctor * stats =
  let stats = { steals = 0; stolen_tasks = 0; steal_fails = 0 } in
  let ctor : Sched_ops.ctor =
   fun view ->
    let d = deques view in
    let fail_streak = Array.make d.n 0 in
    let charge = Array.make d.n 0 in
    instance ?quantum d
      ~sched_balance:(fun ~cpu ->
        let self = index d cpu in
        let idx = Deques.victim d.dq ~self in
        if idx < 0 then begin
          stats.steal_fails <- stats.steal_fails + 1;
          fail_streak.(self) <- fail_streak.(self) + 1;
          None
        end
        else begin
          let moved = Deques.steal_half d.dq ~from:idx ~into:self in
          stats.steals <- stats.steals + 1;
          stats.stolen_tasks <- stats.stolen_tasks + moved;
          charge.(self) <-
            charge.(self) + (Deques.probes d.dq * steal_probe_ns) + (moved * steal_task_ns);
          Deques.pop_head d.dq self
        end)
      ~sched_migration_charge:(fun ~cpu ->
        let self = index d cpu in
        let c = charge.(self) in
        fail_streak.(self) <- 0;
        charge.(self) <- 0;
        c)
      ~sched_idle_park:(fun ~cpu -> fail_streak.(index d cpu) >= storm_park_after)
  in
  (ctor, stats)

let register_metrics stats ?(labels = []) reg =
  let c name help read = Registry.counter reg ~help ~labels name read in
  c "skyloft_percpu_steals_total" "Successful steal-half grabs" (fun () ->
      stats.steals);
  c "skyloft_percpu_stolen_tasks_total" "Tasks migrated by steals" (fun () ->
      stats.stolen_tasks);
  c "skyloft_percpu_steal_fails_total" "Victim scans that found nothing"
    (fun () -> stats.steal_fails)
