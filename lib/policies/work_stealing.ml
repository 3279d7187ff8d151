module Time = Skyloft_sim.Time
module Costs = Skyloft_hw.Costs
module Task = Skyloft.Task
module Sched_ops = Skyloft.Sched_ops
module Runqueue = Skyloft.Runqueue
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

(* Per-core state, indexed by the core's position in [view.cores]. *)
type deques = {
  view : Sched_ops.view;
  n : int;
  queues : Runqueue.t array;
  cursor : int array;
      (* per-thief steal cursor: the next scan resumes where the last
         successful steal left off, so repeated steals spread across
         victims round-robin instead of draining thief+1 first; -1 until
         the first steal *)
  mutable probes : int;  (* victim deques the last scan looked at *)
  mutable wake_rr : int;
      (* rotation point for wakeups from unmanaged cores when nobody is
         idle *)
}

let deques (view : Sched_ops.view) =
  let n = Array.length view.cores in
  {
    view;
    n;
    queues = Array.init n (fun _ -> Runqueue.create ());
    cursor = Array.make n (-1);
    probes = 0;
    wake_rr = 0;
  }

let managed d cpu = d.view.index_of cpu >= 0

let index d cpu =
  let i = d.view.index_of cpu in
  if i >= 0 then i else invalid_arg "work_stealing: unmanaged cpu"

let q d cpu = d.queues.(index d cpu)

(* The position after [i] in the ring of [d.n] deques: a compare, not a
   division. *)
let[@inline] next d i = if i + 1 = d.n then 0 else i + 1

(* Round-robin victim scan for the thief at position [self], resuming at
   its cursor (the first scan starts just after the thief) and stopping at
   the first non-empty deque: that deque's position, or -1.  The cursor
   moves past a hit. *)
let victim d ~self =
  let idx = ref (if d.cursor.(self) >= 0 then d.cursor.(self) else next d self) in
  let found = ref (-1) in
  let k = ref 0 in
  d.probes <- 0;
  while !found < 0 && !k < d.n do
    let i = !idx in
    if i <> self then begin
      d.probes <- d.probes + 1;
      if not (Runqueue.is_empty d.queues.(i)) then begin
        found := i;
        d.cursor.(self) <- next d i
      end
    end;
    idx := next d i;
    incr k
  done;
  !found

(* Everything but the balance is shared by both variants. *)
let instance ~name ?quantum d ~sched_balance ~sched_migration_charge
    ~sched_idle_park =
  let view = d.view in
  {
    Sched_ops.policy_name =
      (match quantum with Some _ -> name ^ "-preemptive" | None -> name);
    task_init = ignore;
    task_terminate = ignore;
    task_enqueue =
      (fun ~cpu ~reason task ->
        match reason with
        (* A preempted or yielded task goes to the tail so queued short
           work runs first... *)
        | Sched_ops.Enq_preempted | Sched_ops.Enq_yielded ->
            Runqueue.push_tail (q d cpu) task
        (* ...while the owner pushes fresh and woken tasks at the head
           (LIFO locality: the newest task's state is hottest in cache). *)
        | Sched_ops.Enq_new | Sched_ops.Enq_woken -> Runqueue.push_head (q d cpu) task);
    task_dequeue = (fun ~cpu -> Runqueue.pop_head (q d cpu));
    task_block = (fun ~cpu:_ _ -> ());
    task_wakeup =
      (fun ~waker_cpu task ->
        let target =
          if managed d waker_cpu then waker_cpu
          else begin
            (* Unmanaged waker: prefer an idle core, else rotate the
               fallback so repeated wakeups do not hot-spot core 0. *)
            let fallback = view.cores.(d.wake_rr mod d.n) in
            d.wake_rr <- (d.wake_rr + 1) mod d.n;
            Sched_ops.wakeup_to_idle_or view ~fallback
          end
        in
        Runqueue.push_head (q d target) task;
        target);
    sched_timer_tick =
      (fun ~cpu task ->
        match quantum with
        | None -> false
        | Some quantum ->
            (* Preempting with an empty local queue would only reschedule
               the same task; skip the churn. *)
            (not (Runqueue.is_empty (q d cpu)))
            && view.now () - task.Task.run_start >= quantum);
    sched_balance;
    sched_migration_charge;
    sched_idle_park;
  }

let create ?quantum () : Sched_ops.ctor =
 fun view ->
  let d = deques view in
  instance ~name:"work-stealing" ?quantum d
    ~sched_balance:(fun ~cpu ->
      let idx = victim d ~self:(index d cpu) in
      if idx < 0 then None else Runqueue.pop_tail d.queues.(idx))
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
    instance ~name:"steal-half" ?quantum d
      ~sched_balance:(fun ~cpu ->
        let self = index d cpu in
        let idx = victim d ~self in
        if idx < 0 then begin
          stats.steal_fails <- stats.steal_fails + 1;
          fail_streak.(self) <- fail_streak.(self) + 1;
          None
        end
        else begin
          let moved = Runqueue.steal_half ~from:d.queues.(idx) ~into:d.queues.(self) in
          stats.steals <- stats.steals + 1;
          stats.stolen_tasks <- stats.stolen_tasks + moved;
          charge.(self) <-
            charge.(self) + (d.probes * steal_probe_ns) + (moved * steal_task_ns);
          Runqueue.pop_head d.queues.(self)
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
