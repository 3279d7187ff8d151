module Time = Skyloft_sim.Time

(** The paper's general scheduling operations (Table 2).

    A scheduling policy is a value of type {!instance} — a record of the
    operations in Table 2 — produced by a constructor that receives a
    {!view} of the runtime.  The two runtimes — per-CPU ({!Percpu}) and
    {!Hybrid}, whose serial dispatcher hands the cores to per-CPU dispatch
    under load (pinned to the dispatcher, it is the centralized runtime) —
    are each written once against this interface; work stealing,
    steal-half included, is a policy on the per-CPU one.
    Implementing a new policy means implementing this record, which is
    why Skyloft policies are a few hundred lines where kernel schedulers
    are thousands (Table 4).

    Conventions:
    - Runqueue state lives inside the instance's closures.
    - Per-task policy data lives in the [policy_*] fields of {!Task.t}.
    - [task.run_start] (maintained by the runtime) is when the task last
      started running; policies use it for slice accounting.
    - Single-queue policies for the serial dispatcher ({!Hybrid} pinned
      with [~adaptive:false]) ignore the [cpu] argument of queue
      operations and treat their queue as global. *)

type view = {
  cores : int array;  (** worker core ids managed by this scheduler *)
  slots : int array;
      (** core id -> its position in [cores], or -1 for a core the
          scheduler does not manage; ids past its end are unmanaged too.
          Read it through {!index_of}. *)
  pick_idle : unit -> int option;
      (** the first core of [cores], in order, that runs nothing and is
          not broker-capped *)
  now : unit -> Time.t;
}

val index_of : view -> int -> int
(** A core id's position in [view.cores], or -1 for a core the scheduler
    does not manage: a bounds check and a load, which the compiler
    inlines into the policy. *)

(** Why a task is entering the runqueue: policies commonly place preempted
    tasks differently from fresh ones.  Woken tasks enter through
    [task_wakeup] instead. *)
type reason = Enq_new | Enq_preempted | Enq_yielded

type instance = {
  task_init : Task.t -> unit;
      (** initialise the policy-defined fields of a new task *)
  task_terminate : Task.t -> unit;
      (** release policy state when a task finishes *)
  task_enqueue : cpu:int -> reason:reason -> Task.t -> unit;
      (** put a task into the runqueue of [cpu] *)
  task_dequeue : cpu:int -> Task.t option;
      (** select and remove the next task to run on [cpu] *)
  task_block : cpu:int -> Task.t -> unit;
      (** the current task of [cpu] is suspending (account its runtime) *)
  task_wakeup : waker_cpu:int -> Task.t -> int;
      (** place a woken task: choose a core, enqueue there, return the
          chosen core so the runtime can kick it *)
  sched_timer_tick : cpu:int -> Task.t -> bool;
      (** timer-tick policy update for the running task; [true] requests a
          reschedule (the task will be preempted) *)
  sched_balance : cpu:int -> Task.t option;
      (** load balancing for an idle [cpu] (per-CPU policies): return a
          task stolen from another runqueue, if any *)
  sched_migration_charge : cpu:int -> Time.t;
      (** [cpu] is dispatching a task: return, and reset to zero, the
          overhead the policy accrued for [cpu] since its last dispatch
          (probing and migrating stolen work); it is added to the
          dispatch's switch cost.  Called on every per-CPU dispatch. *)
  sched_idle_park : cpu:int -> bool;
      (** [cpu] found nothing to run on a parking runtime: [true] parks
          it now instead of after the grace period (a steal-storm
          brake).  Only consulted when the runtime parks idle cores. *)
}

type ctor = view -> instance

val no_balance : cpu:int -> Task.t option
(** A [sched_balance] that never steals (centralized and single-queue
    policies). *)

val no_migration_charge : cpu:int -> Time.t
(** A [sched_migration_charge] that never charges (every policy that does
    not move work between cores). *)

val park_after_grace : cpu:int -> bool
(** A [sched_idle_park] that always waits out the runtime's grace
    period. *)

val null_instance : instance
(** An inert policy (empty queues, never preempts): initialisation
    placeholder and test double. *)

val wakeup_to_idle_or : view -> fallback:int -> int
(** Default wakeup placement: an idle core when available, otherwise
    [fallback]. *)
