module Time = Skyloft_sim.Time

type view = {
  cores : int array;
  slots : int array;
  pick_idle : unit -> int option;
  now : unit -> Time.t;
}

let index_of view core =
  if core >= 0 && core < Array.length view.slots then Array.unsafe_get view.slots core
  else -1

type reason = Enq_new | Enq_preempted | Enq_yielded

type instance = {
  task_init : Task.t -> unit;
  task_terminate : Task.t -> unit;
  task_enqueue : cpu:int -> reason:reason -> Task.t -> unit;
  task_dequeue : cpu:int -> Task.t option;
  task_block : cpu:int -> Task.t -> unit;
  task_wakeup : waker_cpu:int -> Task.t -> int;
  sched_timer_tick : cpu:int -> Task.t -> bool;
  sched_balance : cpu:int -> Task.t option;
  sched_migration_charge : cpu:int -> Time.t;
  sched_idle_park : cpu:int -> bool;
}

type ctor = view -> instance

let no_balance ~cpu:_ = None
let no_migration_charge ~cpu:_ = 0
let park_after_grace ~cpu:_ = false

(* Inert policy: used as an initialisation placeholder and in tests. *)
let null_instance =
  {
    task_init = ignore;
    task_terminate = ignore;
    task_enqueue = (fun ~cpu:_ ~reason:_ _ -> ());
    task_dequeue = (fun ~cpu:_ -> None);
    task_block = (fun ~cpu:_ _ -> ());
    task_wakeup = (fun ~waker_cpu _ -> waker_cpu);
    sched_timer_tick = (fun ~cpu:_ _ -> false);
    sched_balance = no_balance;
    sched_migration_charge = no_migration_charge;
    sched_idle_park = park_after_grace;
  }

let wakeup_to_idle_or view ~fallback =
  match view.pick_idle () with Some core -> core | None -> fallback
