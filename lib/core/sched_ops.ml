module Time = Skyloft_sim.Time

type view = {
  cores : int array;
  index_of : int -> int;
  is_idle : int -> bool;
  pick_idle : unit -> int option;
  now : unit -> Time.t;
}
type reason = Enq_new | Enq_preempted | Enq_woken | Enq_yielded

type instance = {
  policy_name : string;
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
    policy_name = "null";
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

type probe = { queued : unit -> int; oldest_wait : unit -> Time.t }

(* Queue length and oldest-pending-task age are not part of the Table 2
   interface, so the runtimes measure them by wrapping the policy's queue
   operations.  Enqueue-order timestamps approximate the oldest pending
   task exactly for FIFO policies and conservatively otherwise.  They live
   in a ring that only grows (doubling), so a steady-state enqueue
   allocates nothing; the ring's length is the queue length. *)
let instrument ~now ?on_change (p : instance) =
  (* enqueue stamps, oldest at [first], in a power-of-two ring *)
  let ring = ref (Array.make 64 0) and first = ref 0 and count = ref 0 in
  let slot i = (!first + i) land (Array.length !ring - 1) in
  let notify () = match on_change with Some f -> f !count | None -> () in
  let entered () =
    if !count = Array.length !ring then begin
      let old = !ring and n = !count in
      ring := Array.init (2 * n) (fun i -> if i < n then old.((!first + i) land (n - 1)) else 0);
      first := 0
    end;
    !ring.(slot !count) <- now ();
    incr count;
    notify ()
  in
  let left = function
    | None -> None
    | some ->
        if !count > 0 then begin
          first := slot 1;
          decr count
        end;
        notify ();
        some
  in
  let wrapped =
    {
      p with
      task_enqueue =
        (fun ~cpu ~reason task ->
          entered ();
          p.task_enqueue ~cpu ~reason task);
      task_dequeue = (fun ~cpu -> left (p.task_dequeue ~cpu));
      task_wakeup =
        (fun ~waker_cpu task ->
          (* policies enqueue woken tasks internally, bypassing
             [task_enqueue] *)
          entered ();
          p.task_wakeup ~waker_cpu task);
      sched_balance = (fun ~cpu -> left (p.sched_balance ~cpu));
    }
  in
  let probe =
    {
      queued = (fun () -> !count);
      oldest_wait = (fun () -> if !count = 0 then 0 else max 0 (now () - !ring.(!first)));
    }
  in
  (wrapped, probe)

let pick_idle view = view.pick_idle ()

let wakeup_to_idle_or view ~fallback =
  match pick_idle view with Some core -> core | None -> fallback
