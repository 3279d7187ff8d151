module Time = Skyloft_sim.Time
module Coro = Skyloft_sim.Coro
module Engine = Skyloft_sim.Engine
module Machine = Skyloft_hw.Machine
module Costs = Skyloft_hw.Costs
module Kmod = Skyloft_kernel.Kmod
module Histogram = Skyloft_stats.Histogram
module Summary = Skyloft_stats.Summary
module Trace = Skyloft_stats.Trace
module Timeseries = Skyloft_stats.Timeseries
module Alloc_policy = Skyloft_alloc.Policy
module Allocator = Skyloft_alloc.Allocator
module Registry = Skyloft_obs.Registry
module Attribution = Skyloft_obs.Attribution

(* The shared substrate under every runtime (Table 2's framework claim):
   app table, task lifecycle + attribution stamping, BE occupancy, the
   Kmod switch_to multi-app path, trace vocabulary, watchdog bookkeeping,
   deadline kills, allocator probes and metrics.  A runtime contributes
   only its DISPATCH substrate — how tasks are picked, placed and
   preempted (per-CPU timer-driven, dedicated dispatcher, or the hybrid
   of both) — as a record of closures, mirroring the Sched_ops idiom. *)

(* One execution unit: a worker core's scheduling state.  Runtimes wrap
   it with their own per-unit extras (kick flags, assignment generations). *)
type exec = {
  exec_core : int;
  mutable exec_slot : int;  (* index among d_units; -1 before install *)
  mutable current : Task.t;  (* [Task.nil] while the unit runs nothing *)
  mutable completion : Engine.timer;
      (* the unit's one stable segment-end timer, installed with the
         dispatch record: armed per segment for [current], disarmed when
         the task leaves the unit *)
  mutable switch_done : Engine.timer;
      (* the unit's one stable switch-done timer, installed with the
         dispatch record: every dispatch re-arms it (superseding any stale
         firing) instead of building a closure per dispatch *)
  mutable incoming : int;
      (* app id of an assignment in flight toward the unit, -1 if none;
         written only through [set_incoming], which keeps [be_incoming] *)
  mutable busy_from : Time.t;
  mutable active_app : int;
}

(* The DISPATCH substrate signature, as a record of closures (installed
   after construction, like the policy, to break the knot).  Every
   operation on the runtime handle is implemented once below; these hooks
   are the only places the two mechanisms differ. *)
type dispatch = {
  d_name : string;
  d_units : exec array;  (* every execution unit, in core order *)
  d_pinnable : bool;  (* whether [spawn ~cpu] may pin a task to a unit *)
  d_enqueue_cpu : exec -> int;
      (* queue a yielded task is re-enqueued on: the unit's own core
         (per-CPU) or the dispatcher's global queue (centralized) *)
  d_released : exec -> unit;
      (* the unit gave its task up (completion, block, preempt, kill):
         bump assignment generations, invalidate stale timers *)
  d_reschedule : exec -> prev:Task.t -> unit;
      (* find the unit something to run: synchronous pick or dispatcher
         assignment; [prev] is the task that just left it, or [Task.nil] *)
  d_place : Task.t -> cpu:int option -> unit;
      (* a new task's placement: policy init, enqueue, kick or pump *)
  d_wake : Task.t -> unit;  (* an awakened task's placement *)
  d_kthread : exec -> Kmod.kthread -> unit;
      (* per-unit setup of a freshly parked kthread (UINTR handlers) *)
  d_evict : exec -> unit;  (* the broker capped this unit: preempt it *)
  d_redrive : exec -> unit;  (* the broker handed this unit back *)
  d_preempt_be : exec -> bool;
      (* preempt the unit's running BE task, if any; whether it did *)
  d_be_grown : unit -> unit;  (* the BE allowance grew: wake the units *)
  d_alloc_event : Allocator.event -> unit;  (* trace an allocator decision *)
  d_be_attached : unit -> unit;  (* BE work just arrived: wake the units *)
}

let null_dispatch =
  {
    d_name = "null";
    d_units = [||];
    d_pinnable = false;
    d_enqueue_cpu = (fun ex -> ex.exec_core);
    d_released = (fun _ -> ());
    d_reschedule = (fun _ ~prev:_ -> ());
    d_place = (fun _ ~cpu:_ -> ());
    d_wake = ignore;
    d_kthread = (fun _ _ -> ());
    d_evict = ignore;
    d_redrive = ignore;
    d_preempt_be = (fun _ -> false);
    d_be_grown = ignore;
    d_alloc_event = ignore;
    d_be_attached = ignore;
  }

type t = {
  machine : Machine.t;
  engine : Engine.t;
  kmod : Kmod.t;
  mutable kthreads : Kmod.kthread array array;
      (* app id -> its kthread on each unit, indexed by exec_slot;
         [no_kthreads] for an app with none; grown by doubling *)
  mutable by_id : App.t array;
      (* app id -> app, daemon (id 0) included: ids are dense, handed out
         in sequence by [new_app], so [next_app_id] bounds the known ones;
         grown by doubling, slots past it hold the daemon *)
  daemon : App.t;
  mutable policy : Sched_ops.instance;
  mutable be_app : App.t;  (* [App.none] until a BE app attaches *)
  be_queue : Runqueue.t;  (* BE work lives here, outside the LC policy *)
  mutable lc_queued : int;  (* LC tasks in the policy's queues *)
  mutable enq_stamps : Time.t array;  (* their enqueue times: a ring, grown by doubling *)
  mutable enq_first : int;  (* the oldest stamp's slot *)
  mutable be_running : int;
      (* units whose current task is BE: written by [begin_run] and
         [release], which alone write [current], recounted at attach *)
  mutable be_from : int;  (* sum of those units' busy_from, kept alike *)
  mutable be_incoming : int;  (* units whose [incoming] is the BE app *)
  mutable busy_total : int;  (* sum of every app's busy_ns, daemon included *)
  mutable running_total : int;  (* units running anything *)
  mutable running_from_total : int;  (* sum of their busy_from *)
  mutable be_allowance : int;  (* units BE tasks may occupy right now *)
  mutable core_allowance : int;
      (* units (by slot, a prefix of d_units) this runtime may occupy at
         all: the machine-level broker's grant.  max_int = uncapped, the
         single-tenant default — every gate below is then a no-op. *)
  mutable allocator : Allocator.t option;
  rescue_detect : Histogram.t;  (* how late each violation was caught *)
  wakeups : Histogram.t;  (* wakeup-to-dispatch latency *)
  mutable queue_depth : Timeseries.t;
      (* LC policy queue length over time, from the first
         [watch_queue_depth]; [unwatched] until then *)
  mutable switches : int;
  mutable app_switches : int;
  mutable preempts : int;
  mutable be_preempts : int;
  mutable ticks : int;  (* timer interrupts handled *)
  mutable failovers : int;  (* dispatcher failovers (serial dispatch only) *)
  mutable deadline_drops : int;
  mutable trace : Trace.t option;
  mutable dispatch : dispatch;
  mutable slot_of : int array;  (* core id -> exec_slot, -1 if not a unit *)
  mutable idle : int array;
      (* bit [s mod idle_bits] of word [s / idle_bits] is set iff unit [s]
         runs nothing; after install, only [begin_run] and [release]
         write it, as they alone write [current] *)
  mutable sched_view : Sched_ops.view option;  (* built by install_dispatch *)
  mutable metric_extras : Registry.labels -> Registry.t -> unit;
      (* mechanism- and policy-specific metrics, registered after the
         shared [skyloft_runtime_] family *)
  mutable next_app_id : int;
      (* per-run app-id allocator: ids used to come from a process-wide
         counter, which made concurrent runs perturb each other *)
}

(* The shared empty row of [kthreads]: compared physically. *)
let no_kthreads : Kmod.kthread array = [||]

(* The [queue_depth] of every unwatched runtime: compared physically and
   never recorded, so an unwatched queue change costs one compare. *)
let unwatched = Timeseries.create ()

let create machine kmod =
  let daemon = App.daemon () in
  {
    machine;
    engine = Machine.engine machine;
    kmod;
    kthreads = Array.make 64 no_kthreads;
    by_id = Array.make 64 daemon;
    daemon;
    policy = Sched_ops.null_instance;
    be_app = App.none;
    be_queue = Runqueue.create ();
    lc_queued = 0;
    enq_stamps = Array.make 64 0;
    enq_first = 0;
    be_running = 0;
    be_from = 0;
    be_incoming = 0;
    busy_total = 0;
    running_total = 0;
    running_from_total = 0;
    be_allowance = 0;
    core_allowance = max_int;
    allocator = None;
    rescue_detect = Histogram.create ();
    wakeups = Histogram.create ();
    queue_depth = unwatched;
    switches = 0;
    app_switches = 0;
    preempts = 0;
    be_preempts = 0;
    ticks = 0;
    failovers = 0;
    deadline_drops = 0;
    trace = None;
    dispatch = null_dispatch;
    slot_of = [||];
    idle = [||];
    sched_view = None;
    metric_extras = (fun _ _ -> ());
    next_app_id = 1;  (* id 0 is the daemon *)
  }

let now t = Engine.now t.engine
let machine t = t.machine
let engine t = t.engine
let kmod t = t.kmod
let policy t = t.policy
let dispatch t = t.dispatch
let be_queue t = t.be_queue
let lc_queued t = t.lc_queued
let be_allowance t = t.be_allowance
let trace t = t.trace
let exec_core ex = ex.exec_core
let exec_slot ex = ex.exec_slot
let current ex = ex.current
let completion ex = ex.completion
let switch_pending ex = Engine.armed ex.switch_done
let incoming ex = ex.incoming
let active_app ex = ex.active_app

(* The engine of a unit's timers before install: never armed (a timer
   touches no queue until then, so every domain may share it), and
   replaced by [install_dispatch] with timers on the runtime's engine. *)
let detached = Engine.create ()

let make_exec core =
  {
    exec_core = core;
    exec_slot = -1;
    current = Task.nil;
    completion = Engine.timer detached ignore;
    switch_done = Engine.timer detached ignore;
    incoming = -1;
    busy_from = 0;
    active_app = 0;
  }

(* Broker gate: a unit whose slot falls beyond the core allowance may not
   run anything (its core belongs to another tenant right now).  Allowed
   units are the d_units prefix, which keeps the mapping deterministic:
   a grant of [n] cores is always units 0..n-1. *)
let unit_capped t ex = ex.exec_slot >= t.core_allowance

(* The machine-level broker's reclaim/grant muscle: shrinking evicts the
   newly capped units, growing redrives the units handed back — each by
   whatever means the mechanism provides. *)
let set_core_allowance t n =
  let old = t.core_allowance in
  t.core_allowance <- Int.max 0 n;
  if t.core_allowance < old then
    Array.iter
      (fun ex -> if unit_capped t ex then t.dispatch.d_evict ex)
      t.dispatch.d_units
  else if t.core_allowance > old then
    Array.iter
      (fun ex -> if not (unit_capped t ex) then t.dispatch.d_redrive ex)
      t.dispatch.d_units

(* ---- idle tracking --------------------------------------------------------- *)

(* Which units run nothing is kept as a bitmask over exec slots, flipped
   where [current] changes, so "is this core idle" and "first idle core"
   never scan the units. *)
let idle_bits = Bitmask.width

let slot_of_core t core =
  if core >= 0 && core < Array.length t.slot_of then t.slot_of.(core) else -1

let idle_bit t slot = t.idle.(slot / idle_bits) land (1 lsl (slot mod idle_bits)) <> 0

let set_idle_bit t slot on =
  if slot >= 0 then begin
    let w = slot / idle_bits and bit = 1 lsl (slot mod idle_bits) in
    t.idle.(w) <- (if on then t.idle.(w) lor bit else t.idle.(w) land lnot bit)
  end

let is_idle t core =
  let s = slot_of_core t core in
  s >= 0 && s < t.core_allowance && idle_bit t s

(* The broker allowance is a slot prefix, so the allowed idle units of
   word [w] are its bits below [core_allowance - w * idle_bits]. *)
let rec first_idle_from t w =
  let base = w * idle_bits in
  if w >= Array.length t.idle || base >= t.core_allowance then -1
  else
    let room = t.core_allowance - base in
    let m =
      if room >= idle_bits then t.idle.(w) else t.idle.(w) land ((1 lsl room) - 1)
    in
    if m <> 0 then base + Bitmask.lowest m else first_idle_from t (w + 1)

let first_idle_slot t = first_idle_from t 0

let view t =
  match t.sched_view with
  | Some v -> v
  | None -> invalid_arg "Runtime_core.view: no dispatch installed"

let install_policy t ctor = t.policy <- ctor (view t)

(* ---- applications and kthreads ------------------------------------------ *)

let find_app t id =
  if id < 0 || id >= t.next_app_id then raise Not_found;
  Array.unsafe_get t.by_id id

(* [a] long enough to index [i], doubled with [fill] in the new slots. *)
let grown a i fill =
  let n = Array.length a in
  if i < n then a
  else begin
    let b = Array.make (Int.max (i + 1) (2 * n)) fill in
    Array.blit a 0 b 0 n;
    b
  end

let new_app t ~name =
  let id = t.next_app_id in
  let app = App.create ~id ~name in
  t.by_id <- grown t.by_id id t.daemon;
  t.by_id.(id) <- app;
  t.next_app_id <- id + 1;
  app

(* The app's row: one kthread parked on every unit, in unit order, each
   set up by the mechanism (per-CPU dispatch wires its UINTR handlers
   there) and then handed to [f]. *)
let launch t ~app f =
  t.kthreads <- grown t.kthreads app no_kthreads;
  t.kthreads.(app) <-
    Array.map
      (fun ex ->
        let kt = Kmod.park_on_cpu t.kmod ~app ~core:ex.exec_core in
        t.dispatch.d_kthread ex kt;
        f kt;
        kt)
      t.dispatch.d_units

let unit_kthread t ~app slot =
  if app < 0 || app >= Array.length t.kthreads then raise Not_found;
  let a = Array.unsafe_get t.kthreads app in
  if a == no_kthreads then raise Not_found;
  a.(slot)

let kthread t ~app ~core =
  let slot = slot_of_core t core in
  if slot < 0 then raise Not_found;
  unit_kthread t ~app slot

let create_app t ~name =
  let app = new_app t ~name in
  launch t ~app:app.App.id ignore;
  app

(* The daemon occupies every unit first (§4.1). *)
let activate_daemon t = launch t ~app:0 (fun kt -> ignore (Kmod.activate t.kmod kt))

let is_be_app t id = id = t.be_app.App.id
let is_be t (task : Task.t) = is_be_app t task.Task.app

(* Units the BE application occupies right now, counting in-flight
   assignments so an allowance cannot be oversubscribed while a dispatch
   is pending (synchronous runtimes never have one). *)
let be_occupancy t = t.be_running + t.be_incoming

let set_incoming t ex app =
  if is_be_app t ex.incoming then t.be_incoming <- t.be_incoming - 1;
  ex.incoming <- app;
  if is_be_app t app then t.be_incoming <- t.be_incoming + 1

(* The allocator's reclaim/grant muscle: shrinking preempts running BE
   work unit by unit until BE fits the allowance. *)
let set_be_allowance t n =
  let old = t.be_allowance in
  t.be_allowance <- n;
  if n < old then begin
    let excess = ref (be_occupancy t - n) in
    Array.iter
      (fun ex -> if !excess > 0 && t.dispatch.d_preempt_be ex then decr excess)
      t.dispatch.d_units
  end
  else if n > old then t.dispatch.d_be_grown ()

(* ---- accounting and trace vocabulary ------------------------------------- *)

(* The running units' busy_from sums, of the BE app's and in total, and
   the count of all of them ([be_running] counts the BE app's), so the
   in-flight busy time needs no scan: [begin_run], [release] and
   [account] alone move a unit's [current] or [busy_from]. *)
let track_running t ~app ~units ~from =
  if is_be_app t app then t.be_from <- t.be_from + from;
  t.running_total <- t.running_total + units;
  t.running_from_total <- t.running_from_total + from

let account t ex =
  let task = ex.current in
  if task != Task.nil then begin
    let app = find_app t task.Task.app in
    let busy = Int.max 0 (now t - ex.busy_from) in
    app.App.busy_ns <- app.App.busy_ns + busy;
    t.busy_total <- t.busy_total + busy;
    track_running t ~app:task.Task.app ~units:0 ~from:(now t - ex.busy_from);
    match t.trace with
    | Some trace when now t > ex.busy_from ->
        Trace.span trace ~core:ex.exec_core ~app:task.Task.app
          ~name:task.Task.name ~start:ex.busy_from ~stop:(now t)
    | _ -> ()
  end;
  ex.busy_from <- now t

let trace_instant t ~core kind name =
  match t.trace with
  | Some trace -> Trace.instant trace ~core ~at:(now t) kind ~name
  | None -> ()

let release t ex =
  let task = ex.current in
  if task != Task.nil then begin
    if is_be t task then t.be_running <- t.be_running - 1;
    track_running t ~app:task.Task.app ~units:(-1) ~from:(-ex.busy_from)
  end;
  ex.current <- Task.nil;
  set_idle_bit t ex.exec_slot true;
  t.dispatch.d_released ex

(* Cross-application switch through the kernel module (§3.3/§5.4):
   returns the charged cost. *)
let app_switch t ex (task : Task.t) =
  let from_kt = unit_kthread t ~app:ex.active_app ex.exec_slot in
  let to_kt = unit_kthread t ~app:task.Task.app ex.exec_slot in
  let cost = Kmod.switch_to t.kmod ~from:from_kt ~target:to_kt in
  ex.active_app <- task.Task.app;
  t.app_switches <- t.app_switches + 1;
  trace_instant t ~core:ex.exec_core Trace.App_switch task.Task.name;
  cost

(* ---- the runqueues -------------------------------------------------------- *)

(* Every runqueue entry and exit passes through here: BE work to
   [be_queue], LC work to the policy, counted on the way in and out (queue
   length and oldest wait are not part of the Table 2 interface), and
   recorded into the depth series once it is watched.  The stamps give the
   oldest wait exactly for FIFO policies, conservatively otherwise. *)
let lc_entered t =
  let n = t.lc_queued in
  if n = Array.length t.enq_stamps then begin
    let old = t.enq_stamps and first = t.enq_first in
    t.enq_stamps <-
      Array.init (2 * n) (fun i -> if i < n then old.((first + i) land (n - 1)) else 0);
    t.enq_first <- 0
  end;
  t.enq_stamps.((t.enq_first + n) land (Array.length t.enq_stamps - 1)) <- now t;
  t.lc_queued <- n + 1;
  if t.queue_depth != unwatched then
    Timeseries.record t.queue_depth ~at:(now t) t.lc_queued

let lc_left t =
  t.enq_first <- (t.enq_first + 1) land (Array.length t.enq_stamps - 1);
  t.lc_queued <- t.lc_queued - 1;
  if t.queue_depth != unwatched then
    Timeseries.record t.queue_depth ~at:(now t) t.lc_queued

let oldest_lc_wait t =
  if t.lc_queued = 0 then 0 else Int.max 0 (now t - t.enq_stamps.(t.enq_first))

let enqueue t ~cpu ~reason (task : Task.t) =
  if not (is_be t task) then begin
    lc_entered t;
    t.policy.task_enqueue ~cpu ~reason task
  end
  else if reason = Sched_ops.Enq_preempted then Runqueue.push_head t.be_queue task
  else Runqueue.push_tail t.be_queue task

let place_woken t ~waker_cpu (task : Task.t) =
  if not (is_be t task) then begin
    lc_entered t;
    t.policy.task_wakeup ~waker_cpu task
  end
  else begin
    Runqueue.push_tail t.be_queue task;
    task.Task.last_core
  end

(* Dequeue-side filter: tasks killed at their deadline while queued are
   discarded here instead of being hunted down inside the policy's
   runqueues (the drop was accounted at kill time). *)
let discard_killed t (task : Task.t) =
  if task.Task.killed then begin
    task.Task.state <- Task.Exited;
    if not (is_be t task) then t.policy.task_terminate task;
    true
  end
  else false

let rec next_lc t ~cpu ~balance =
  let next =
    match t.policy.task_dequeue ~cpu with
    | None when balance -> t.policy.sched_balance ~cpu
    | next -> next
  in
  match next with
  | Some task ->
      lc_left t;
      if discard_killed t task then next_lc t ~cpu ~balance else next
  | None -> None

let rec next_be t =
  match Runqueue.pop_head t.be_queue with
  | Some task when discard_killed t task -> next_be t
  | next -> next

(* ---- the shared task lifecycle ------------------------------------------- *)

(* Off its unit and counted out: the part of an exit that comes before
   the completion callback. *)
let retire t ex (task : Task.t) =
  task.state <- Task.Exited;
  account t ex;
  release t ex;
  let app = find_app t task.app in
  app.App.completed <- app.App.completed + 1;
  app.App.tasks_alive <- app.App.tasks_alive - 1;
  t.policy.task_terminate task

let rec process t ex (task : Task.t) =
  match task.body with
  | Coro.Compute (d, k) ->
      (* a submitted stage keeps the compute it has left in [service] *)
      if task.body == Task.staged then task.segment_end <- now t + task.service
      else begin
        task.cont <- k;
        task.segment_end <- now t + d
      end;
      Engine.arm ex.completion ~at:task.segment_end
  | Coro.Yield _ ->
      (* continuation evaluated at the next dispatch (resume time) *)
      task.state <- Task.Runnable;
      account t ex;
      release t ex;
      task.obs_enq_at <- now t;
      enqueue t ~cpu:(t.dispatch.d_enqueue_cpu ex) ~reason:Sched_ops.Enq_yielded task;
      t.dispatch.d_reschedule ex ~prev:task
  | Coro.Block k ->
      if task.pending_wake then begin
        task.pending_wake <- false;
        task.body <- k ();
        process t ex task
      end
      else begin
        task.body <- Coro.Block k;
        task.state <- Task.Blocked;
        account t ex;
        release t ex;
        task.obs_block_at <- now t;
        t.policy.task_block ~cpu:ex.exec_core task;
        t.dispatch.d_reschedule ex ~prev:task
      end
  | Coro.Exit ->
      retire t ex task;
      task.on_exit task;
      t.dispatch.d_reschedule ex ~prev:task

(* The end of a segment.  A submitted stage's hook runs where a spawned
   task's continuation runs, before the unit is released, and the stage
   exits. *)
let segment_done t ex () =
  let task = ex.current in
  if task != Task.nil then
    if task.Task.body == Task.staged then begin
      task.Task.on_exit task;
      retire t ex task;
      t.dispatch.d_reschedule ex ~prev:task
    end
    else begin
      task.Task.body <- task.Task.cont ();
      process t ex task
    end

(* The running segment, cut short with [remaining] left: kept in the body
   for a resume, or in [service] for a submitted stage. *)
let suspend_segment (task : Task.t) remaining =
  if task.Task.body == Task.staged then task.Task.service <- remaining
  else task.Task.body <- Coro.Compute (remaining, task.Task.cont)

(* The second half of a dispatch, once the switch cost has elapsed: start
   executing the unit's task.  The unit's switch-done timer is armed only
   by [run_after_switch] for the task [begin_run] just put on it, and the
   one path that frees a unit inside its switch window, [kill], disarms
   it; so when it fires, [current] is the task that armed it. *)
let switch_done t ex () =
  let task = ex.current in
  if task != Task.nil && task.Task.state = Task.Running then begin
    (match task.body with
    | Coro.Yield k -> task.body <- k ()
    | Coro.Block k when task.resuming ->
        task.resuming <- false;
        task.body <- k ()
    | Coro.Block _ | Coro.Compute _ | Coro.Exit -> ());
    process t ex task
  end

(* Install the dispatch record, index the units by core, build the idle
   mask and the scheduler view once, and wire each unit's stable
   completion and switch-done timers.  The completion reads [ex.current]
   when it fires: it is only ever armed for the unit's current task, and
   every path that takes the task off the unit (depose, fault, kill)
   disarms it first. *)
let install_dispatch t d =
  let top = Array.fold_left (fun acc ex -> Int.max acc ex.exec_core) (-1) d.d_units in
  let slot_of = Array.make (top + 1) (-1) in
  Array.iteri
    (fun i ex ->
      if ex.exec_core < 0 || slot_of.(ex.exec_core) >= 0 then
        invalid_arg
          (Printf.sprintf "Runtime_core.install_dispatch: core %d is not a distinct core id"
             ex.exec_core);
      slot_of.(ex.exec_core) <- i)
    d.d_units;
  let n = Array.length d.d_units in
  t.dispatch <- d;
  t.slot_of <- slot_of;
  t.idle <- Array.make ((n + idle_bits - 1) / idle_bits) 0;
  let cores = Array.map (fun ex -> ex.exec_core) d.d_units in
  t.sched_view <-
    Some
      {
        Sched_ops.cores;
        slots = slot_of;
        pick_idle =
          (fun () ->
            let s = first_idle_slot t in
            if s < 0 then None else Some cores.(s));
        now = (fun () -> now t);
      };
  Array.iteri
    (fun i ex ->
      ex.exec_slot <- i;
      set_idle_bit t i (ex.current == Task.nil);
      ex.switch_done <- Engine.timer t.engine (switch_done t ex);
      ex.completion <- Engine.timer t.engine (segment_done t ex))
    d.d_units;
  t.be_allowance <- Array.length d.d_units

(* Put [task] on [ex]: lifecycle state, attribution stamping, and the
   wakeup-latency sample.  Returns the moment execution begins (after the
   switch cost). *)
let begin_run t ex (task : Task.t) ~switch_cost =
  task.state <- Task.Running;
  if is_be t task then t.be_running <- t.be_running + 1;
  ex.current <- task;
  set_idle_bit t ex.exec_slot false;
  ex.busy_from <- now t;
  track_running t ~app:task.Task.app ~units:1 ~from:(now t);
  task.obs_queued_ns <- task.obs_queued_ns + Int.max 0 (now t - task.obs_enq_at);
  task.obs_overhead_ns <- task.obs_overhead_ns + switch_cost;
  let start = now t + switch_cost in
  if task.wake_time >= 0 then begin
    if task.track_wakeup then Histogram.record t.wakeups (start - task.wake_time);
    task.wake_time <- -1
  end;
  task.run_start <- start;
  task.last_core <- ex.exec_core;
  start

(* Arm the unit's switch-done timer for the task [begin_run] just put on
   it; re-arming cancels any stale pending firing. *)
let run_after_switch t ex ~switch_cost =
  Engine.arm ex.switch_done ~at:(now t + switch_cost)

(* Take the running task off its unit (preemption, rescue).  [overhead] is
   the receiver-side handling cost: it extends the remaining segment and is
   charged to the task now — the attribution identity holds either way
   because the response time counts it exactly once.  Returns the deposed
   task; the caller requeues it and reschedules the unit. *)
let depose t ex ~overhead =
  let task = ex.current in
  if task == Task.nil || not (Engine.armed ex.completion) then None
  else begin
    Engine.disarm ex.completion;
    suspend_segment task (Int.max 0 (task.Task.segment_end - now t) + overhead);
    task.Task.state <- Task.Runnable;
    if overhead > 0 then
      task.Task.obs_overhead_ns <- task.Task.obs_overhead_ns + overhead;
    account t ex;
    release t ex;
    task.Task.obs_enq_at <- now t;
    trace_instant t ~core:ex.exec_core Trace.Preempt task.Task.name;
    Some task
  end

(* ---- wakeups -------------------------------------------------------------- *)

(* State transition, stall attribution and the trace instant, then the
   runtime's placement (policy wakeup + kick, or dispatcher pump). *)
let wakeup t (task : Task.t) =
  match task.Task.state with
  | Task.Blocked ->
      task.Task.state <- Task.Runnable;
      task.Task.resuming <- true;
      task.Task.wake_time <- now t;
      task.Task.obs_stall_ns <-
        task.Task.obs_stall_ns + Int.max 0 (now t - task.Task.obs_block_at);
      task.Task.obs_enq_at <- now t;
      trace_instant t ~core:(Int.max 0 task.Task.last_core) Trace.Wakeup
        task.Task.name;
      t.dispatch.d_wake task
  | Task.Running | Task.Runnable -> task.Task.pending_wake <- true
  | Task.Exited -> ()

(* §6 "Blocking events": the running task hits a page fault (or a blocking
   syscall).  The userfaultfd-style monitor blocks the task and lets the
   scheduler run other work — possibly another application's — on the core
   for the fault's duration, without violating the Single Binding Rule
   (the kthread stays bound; only the user thread sleeps). *)
let fault_current t ~core ~duration =
  if duration <= 0 then
    invalid_arg "Runtime_core.fault_current: duration must be positive";
  match slot_of_core t core with
  | -1 -> invalid_arg "Runtime_core.fault_current: unmanaged core"
  | slot -> (
      let ex = t.dispatch.d_units.(slot) in
      let task = ex.current in
      if task == Task.nil || not (Engine.armed ex.completion) then false
      else begin
        Engine.disarm ex.completion;
        suspend_segment task (Int.max 0 (task.Task.segment_end - now t));
        task.Task.state <- Task.Blocked;
        account t ex;
        release t ex;
        task.Task.obs_block_at <- now t;
        (* BE tasks live outside the LC policy, which never saw this
           one start and must not account its block. *)
        if not (is_be t task) then t.policy.task_block ~cpu:core task;
        trace_instant t ~core Trace.Fault task.Task.name;
        Engine.after t.engine duration (fun () -> wakeup t task);
        t.dispatch.d_reschedule ex ~prev:task;
        true
      end)

(* ---- deadlines ------------------------------------------------------------ *)

let deadline_expired t (task : Task.t) ~on_drop =
  let app = find_app t task.Task.app in
  app.App.tasks_alive <- app.App.tasks_alive - 1;
  Summary.record_drop app.App.summary;
  t.deadline_drops <- t.deadline_drops + 1;
  trace_instant t ~core:(Int.max 0 task.Task.last_core) Trace.Deadline_drop
    task.Task.name;
  match on_drop with Some f -> f task | None -> ()

let kill t ?on_drop (task : Task.t) =
  if not task.Task.killed then
    match task.Task.state with
    | Task.Exited -> ()
    | Task.Running -> (
        (* [begin_run] set [last_core] to the running task's unit. *)
        let slot = slot_of_core t task.Task.last_core in
        if slot >= 0 then
          let ex = t.dispatch.d_units.(slot) in
          if ex.current == task then begin
            (* Killed inside its switch window: drop the pending
               switch-done firing, so an armed timer always belongs to
               the unit's current task. *)
            Engine.disarm ex.switch_done;
            Engine.disarm ex.completion;
            task.Task.killed <- true;
            task.Task.state <- Task.Exited;
            account t ex;
            release t ex;
            t.policy.task_terminate task;
            deadline_expired t task ~on_drop;
            t.dispatch.d_reschedule ex ~prev:task
          end)
    | Task.Runnable ->
        (* Somewhere in a runqueue: account the drop now, discard lazily at
           the next dequeue (see [discard_killed]). *)
        task.Task.killed <- true;
        deadline_expired t task ~on_drop
    | Task.Blocked ->
        task.Task.killed <- true;
        task.Task.state <- Task.Exited;
        t.policy.task_terminate task;
        deadline_expired t task ~on_drop

(* ---- task admission ------------------------------------------------------- *)

(* A new task's attribution epoch and its app's counts. *)
let admitted t (app : App.t) (task : Task.t) =
  task.Task.obs_start <- now t;
  task.Task.obs_enq_at <- now t;
  app.App.spawned <- app.App.spawned + 1;
  app.App.tasks_alive <- app.App.tasks_alive + 1;
  task

(* Create a task with the attribution-recording exit hook: on completion
   the request's summary entry and its latency-attribution row (queueing +
   service + overhead + stall = response, exact in integer ns) are written
   into the owning application. *)
let admit t (app : App.t) ~name ~arrival ~service ~record body =
  let on_exit =
    if record then (fun (task : Task.t) ->
      (* Zero-service completions count too: omitting them broke the
         submitted = completed + gave-up + drops reconciliation for
         degenerate workloads. *)
      Summary.record_request app.App.summary ~arrival:task.Task.arrival
        ~completion:(now t) ~service:task.Task.service;
      Attribution.record app.App.attribution
        ~queueing:task.Task.obs_queued_ns
        ~overhead:task.Task.obs_overhead_ns ~stall:task.Task.obs_stall_ns
        ~response:(now t - task.Task.obs_start)
        ~declared:task.Task.service)
    else ignore
  in
  admitted t app (Task.make ~app:app.App.id ~name ~arrival ~service ~on_exit body)

(* Validate, admit, place, then arm the kill timer.  Every check runs
   before [admit], so a rejected spawn leaves no task behind; placement
   precedes the deadline timer, which keeps same-instant event order. *)
let spawn t app ~name ?cpu ?arrival ?(service = 0) ?(record = true) ?deadline
    ?on_drop body =
  (match deadline with
  | Some d when d <= 0 -> invalid_arg "Runtime_core.spawn: deadline must be positive"
  | Some _ | None -> ());
  (match cpu with
  | Some c
    when not
           (t.dispatch.d_pinnable && slot_of_core t c >= 0) ->
      invalid_arg
        (Printf.sprintf "Runtime_core.spawn: %s cannot pin a task to cpu %d"
           t.dispatch.d_name c)
  | Some _ | None -> ());
  let arrival = match arrival with Some a -> a | None -> now t in
  let task = admit t app ~name ~arrival ~service ~record body in
  t.dispatch.d_place task ~cpu;
  (match deadline with
  | Some d -> Engine.after t.engine d (fun () -> kill t ?on_drop task)
  | None -> ());
  task

(* A stage is a task with the shared [Task.staged] body: its length is
   its [service] and its hook its [on_exit], so placing one builds
   nothing but the task. *)
let submit t app ~name ~arrival ~service ~hook request =
  let task =
    admitted t app
      (Task.make ~app:app.App.id ~name ~arrival ~service ~on_exit:hook Task.staged)
  in
  task.Task.request <- request;
  t.dispatch.d_place task ~cpu:None

(* ---- watchdog bookkeeping ------------------------------------------------- *)

(* Count and trace a watchdog rescue; the runtime performs the actual
   recovery (preempt, timer re-arm, failover) itself. *)
let rescued t ex ~late =
  Histogram.record t.rescue_detect late;
  if ex.current != Task.nil then
    trace_instant t ~core:ex.exec_core Trace.Watchdog_rescue ex.current.Task.name

let start_watchdog t ~bound scan =
  match bound with
  | Some b ->
      (* Scan at half the bound so a violation is caught within ~1.5x. *)
      Engine.every t.engine ~period:(Int.max 1 (b / 2)) (fun () ->
          scan ~bound:b;
          true)
  | None -> ()

(* Host-kernel steal of a unit's core: the running segment freezes for the
   outage and resumes at hand-back; run_start moves with it so quantum and
   watchdog clocks do not count stolen time against the task. *)
let freeze_for_steal ex ~duration =
  let task = ex.current in
  if task != Task.nil && Engine.armed ex.completion then begin
    task.Task.segment_end <- task.Task.segment_end + duration;
    task.Task.run_start <- task.Task.run_start + duration;
    task.Task.obs_stall_ns <- task.Task.obs_stall_ns + duration;
    Engine.arm ex.completion ~at:task.Task.segment_end
  end

(* ---- busy accounting for the allocator ----------------------------------- *)

(* Busy nanoseconds including the in-flight segment of running units, so
   the allocator's utilization sample does not lag long-running tasks.
   Each running unit has been busy since its [busy_from], so [n] of them
   sum to [n * now - Σ busy_from]: over every running unit, and over those
   running the BE app. *)
let in_flight_busy t = (t.running_total * now t) - t.running_from_total
let be_in_flight_busy t = (t.be_running * now t) - t.be_from

(* [App.none] has no busy time and no running units. *)
let lc_busy_ns t =
  t.busy_total - t.be_app.App.busy_ns + in_flight_busy t - be_in_flight_busy t

let be_busy_ns t = t.be_app.App.busy_ns + be_in_flight_busy t

(* The congestion sample a machine-level broker reads for this runtime as
   a whole: the LC queue count plus the BE backlog, and total busy time
   including in-flight segments (the broker arbitrates whole runtimes,
   not apps). *)
let congestion t =
  {
    Allocator.runq_len = t.lc_queued + Runqueue.length t.be_queue;
    oldest_delay = oldest_lc_wait t;
    busy_ns = t.busy_total + in_flight_busy t;
  }

(* ---- BE attachment and the core allocator -------------------------------- *)

(* Seed the BE app's batch workers, kept outside the LC policy.  The app
   may already run or have assignments in flight, so its occupancy counts
   and in-flight ledger start from a scan of the units. *)
let spawn_be_workers t (app : App.t) ~chunk ~workers =
  t.be_app <- app;
  Array.iter
    (fun ex ->
      if is_be t ex.current then begin
        t.be_running <- t.be_running + 1;
        t.be_from <- t.be_from + ex.busy_from
      end;
      if is_be_app t ex.incoming then t.be_incoming <- t.be_incoming + 1)
    t.dispatch.d_units;
  for i = 1 to workers do
    (* A batch worker is an endless sequence of compute chunks, yielding
       between chunks so reclaimed cores come back promptly. *)
    let rec loop () = Coro.Compute (chunk, fun () -> Coro.Yield loop) in
    let task =
      Task.create ~app:app.App.id ~name:(Printf.sprintf "be-%d" i) (loop ())
    in
    app.App.spawned <- app.App.spawned + 1;
    app.App.tasks_alive <- app.App.tasks_alive + 1;
    Runqueue.push_tail t.be_queue task
  done

(* Start the congestion-driven core allocator: LC registered on the LC
   queue's congestion signals, BE on its queue backlog; [set_allowance] is
   the runtime's reclaim/grant muscle, and every core moved charges the
   §5.4 inter-application switch cost on the BE side only so each move is
   charged once. *)
let start_allocator t alloc ~be:(app : App.t) ~(bounds : Allocator.bounds)
    ~set_allowance =
  let total = Allocator.capacity alloc in
  t.be_allowance <- bounds.burstable;
  Allocator.register alloc ~app:0 ~name:"lc" ~kind:Alloc_policy.Lc
    ~bounds:{ Allocator.guaranteed = 0; burstable = total }
    ~initial:(total - bounds.burstable)
    ~sample:(fun () ->
      {
        Allocator.runq_len = t.lc_queued;
        oldest_delay = oldest_lc_wait t;
        busy_ns = lc_busy_ns t;
      })
    ~apply:(fun ~granted:_ ~delta:_ -> 0);
  Allocator.register alloc ~app:app.App.id ~name:app.App.name
    ~kind:Alloc_policy.Be ~bounds ~initial:bounds.burstable
    ~sample:(fun () ->
      {
        Allocator.runq_len = Runqueue.length t.be_queue;
        oldest_delay = 0;
        busy_ns = be_busy_ns t;
      })
    ~apply:(fun ~granted ~delta ->
      set_allowance granted;
      Costs.app_switch_ns * abs delta);
  Allocator.start alloc;
  t.allocator <- Some alloc

(* Co-schedule [app] as the best-effort application: validate everything
   first — the BE bounds here, the interval and degradation threshold in
   [Allocator.create] — so a rejected attach admits nothing; then seed its
   batch workers, start the core allocator on the mechanism's BE-allowance
   muscle, and let the mechanism wake units for the new work. *)
let attach_be_app t ?(alloc = Allocator.default_config ()) app ~chunk ~workers =
  let fail msg = invalid_arg ("Runtime_core.attach_be_app: " ^ msg) in
  if t.be_app != App.none then fail "BE app already set";
  let id = app.App.id in
  if id <= 0 || id >= t.next_app_id || t.by_id.(id) != app then
    fail "app not created by this runtime";
  let total = Array.length t.dispatch.d_units in
  let bounds =
    {
      Allocator.guaranteed = alloc.Allocator.be_guaranteed;
      burstable = total;
    }
  in
  if bounds.guaranteed < 0 || bounds.guaranteed > total then
    fail "need 0 <= be_guaranteed <= managed cores";
  let allocator =
    Allocator.create ~engine:t.engine ~policy:alloc.Allocator.policy
      ~total_cores:total
      ~on_event:t.dispatch.d_alloc_event
      ?degrade_after:alloc.Allocator.degrade_after ()
  in
  spawn_be_workers t app ~chunk ~workers;
  start_allocator t allocator ~be:app ~bounds ~set_allowance:(set_be_allowance t);
  t.dispatch.d_be_attached ()

let allocator t = t.allocator
let set_trace t trace = t.trace <- Some trace

(* The series starts at the current depth: the changes before the first
   watch were never recorded. *)
let watch_queue_depth t =
  if t.queue_depth == unwatched then begin
    let series = Timeseries.create () in
    if t.lc_queued > 0 then Timeseries.record series ~at:(now t) t.lc_queued;
    t.queue_depth <- series
  end;
  t.queue_depth

(* ---- counters ------------------------------------------------------------- *)

let task_switches t = t.switches
let app_switches t = t.app_switches
let preemptions t = t.preempts
let be_preemptions t = t.be_preempts
let timer_ticks t = t.ticks
let watchdog_rescues t = Histogram.count t.rescue_detect
let failovers t = t.failovers
let rescue_detection t = t.rescue_detect
let deadline_drops t = t.deadline_drops
let wakeup_hist t = t.wakeups
let count_task_switch t = t.switches <- t.switches + 1

let count_preemption t task =
  if is_be t task then t.be_preempts <- t.be_preempts + 1
  else t.preempts <- t.preempts + 1

let count_tick t = t.ticks <- t.ticks + 1

let failover t ~core =
  t.failovers <- t.failovers + 1;
  trace_instant t ~core Trace.Failover "dispatcher"

(* ---- metrics -------------------------------------------------------------- *)

(* Per-application task counters, response-time histogram and latency
   attribution, identical across runtimes: the [skyloft_app_] family. *)
let register_app_metrics t ~labels reg =
  (* newest app first *)
  for id = t.next_app_id - 1 downto 1 do
    let app = t.by_id.(id) in
    let al = labels @ [ Registry.app app.App.name ] in
    Registry.counter reg ~labels:al "skyloft_app_spawned_total"
      ~help:"Tasks spawned" (fun () -> app.App.spawned);
    Registry.counter reg ~labels:al "skyloft_app_completed_total"
      ~help:"Tasks completed" (fun () -> app.App.completed);
    Registry.counter reg ~labels:al "skyloft_app_busy_ns_total"
      ~help:"Accumulated worker CPU time" (fun () -> app.App.busy_ns);
    Registry.histogram reg ~labels:al "skyloft_app_response_ns"
      ~help:"Request response time" (Summary.latency app.App.summary);
    Attribution.register reg ~labels:al app.App.attribution
  done

let add_metrics t f =
  let prev = t.metric_extras in
  t.metric_extras <-
    (fun labels reg ->
      prev labels reg;
      f labels reg)

(* One schema for every runtime: the shared counters as
   [skyloft_runtime_*{runtime=...}], then the mechanism's and policy's
   extras, then the per-application family.  Pull-based: every closure
   reads existing state at snapshot time, so attaching a registry cannot
   perturb the simulation. *)
let register_metrics t ?(labels = []) reg =
  let rl = ("runtime", t.dispatch.d_name) :: labels in
  let c name help read =
    Registry.counter reg ~help ~labels:rl ("skyloft_runtime_" ^ name) read
  in
  c "task_switches_total" "Intra-application task switches" (fun () -> t.switches);
  c "app_switches_total"
    "Cross-application kthread switches through the kernel module" (fun () ->
      t.app_switches);
  c "preemptions_total" "LC tasks preempted off their core" (fun () -> t.preempts);
  c "be_preemptions_total" "Best-effort tasks preempted" (fun () -> t.be_preempts);
  c "timer_ticks_total" "Timer interrupts handled" (fun () -> t.ticks);
  c "watchdog_rescues_total" "Stuck cores rescued" (fun () -> watchdog_rescues t);
  c "failovers_total" "Dispatcher failovers" (fun () -> t.failovers);
  c "deadline_drops_total" "Tasks killed at their deadline" (fun () ->
      t.deadline_drops);
  c "busy_ns_total" "Worker CPU time over every application" (fun () ->
      t.busy_total);
  Registry.gauge reg ~labels:rl "skyloft_runtime_be_allowance"
    ~help:"Cores the best-effort application may occupy" (fun () ->
      float_of_int t.be_allowance);
  Registry.histogram reg ~labels:rl "skyloft_runtime_wakeup_latency_ns"
    ~help:"Wakeup-to-dispatch latency" t.wakeups;
  Registry.histogram reg ~labels:rl "skyloft_runtime_rescue_detection_ns"
    ~help:"Watchdog detection latency past the bound" t.rescue_detect;
  Registry.series reg ~labels:rl "skyloft_runtime_queue_depth"
    ~help:"LC policy queue length" (watch_queue_depth t);
  t.metric_extras labels reg;
  register_app_metrics t ~labels reg

(* ---- ledger check --------------------------------------------------------- *)

(* Every O(1) ledger against the scan or fold it replaced. *)
let check_ledgers t =
  let check ok what =
    if not ok then failwith ("Runtime_core.check_ledgers: " ^ what)
  in
  let units = t.dispatch.d_units in
  let count p = Array.fold_left (fun n ex -> if p ex then n + 1 else n) 0 units in
  let runs_be ex = ex.current != Task.nil && is_be t ex.current in
  let be_bound ex = is_be_app t ex.incoming in
  let rec distinct = function
    | [] -> true
    | task :: rest ->
        (task == Task.nil || List.for_all (fun other -> other != task) rest)
        && distinct rest
  in
  check
    (distinct (Array.to_list (Array.map (fun ex -> ex.current) units)))
    "a task is current on two units";
  (* the units running a task of an app [keep] accepts: how many, their
     busy_from sum, and their in-flight busy time *)
  let scan keep =
    Array.fold_left
      (fun (n, from, busy) ex ->
        if ex.current != Task.nil && keep ex.current.Task.app then
          (n + 1, from + ex.busy_from, busy + Int.max 0 (now t - ex.busy_from))
        else (n, from, busy))
      (0, 0, 0) units
  in
  let n, from, _ = scan (is_be_app t) in
  check ((n, from) = (t.be_running, t.be_from)) "be_running/be_from";
  check (t.be_incoming = count be_bound) "be_incoming";
  check (be_occupancy t = count (fun ex -> runs_be ex || be_bound ex)) "be_occupancy";
  let recorded = ref 0 in
  for id = 0 to t.next_app_id - 1 do
    recorded := !recorded + t.by_id.(id).App.busy_ns
  done;
  check (t.busy_total = !recorded) "busy_total";
  let n, from, busy = scan (fun _ -> true) in
  check
    ((n, from) = (t.running_total, t.running_from_total))
    "running_total/running_from_total";
  let _, _, lc_busy = scan (fun app -> not (is_be_app t app)) in
  check (lc_busy_ns t = !recorded - t.be_app.App.busy_ns + lc_busy) "lc_busy_ns";
  check ((congestion t).Allocator.busy_ns = !recorded + busy) "congestion busy_ns"
