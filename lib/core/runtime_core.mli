module Time = Skyloft_sim.Time
module Coro = Skyloft_sim.Coro
module Engine = Skyloft_sim.Engine
module Eventq = Skyloft_sim.Eventq
module Machine = Skyloft_hw.Machine
module Kmod = Skyloft_kernel.Kmod
module Histogram = Skyloft_stats.Histogram
module Trace = Skyloft_stats.Trace
module Timeseries = Skyloft_stats.Timeseries
module Allocator = Skyloft_alloc.Allocator
module Registry = Skyloft_obs.Registry

(** The shared runtime substrate (the framework claim of Table 2).

    Both Skyloft runtimes — per-CPU (Figure 2a), and the hybrid, which
    runs the serial dispatcher of Figure 2b (pinned there, it is the
    centralized runtime) and hands its cores to per-CPU dispatch under
    load — are the same core: an app table, the task
    lifecycle with latency-attribution stamping, BE occupancy accounting,
    the kernel-module multi-application switch path (§5.4), one trace
    span/instant vocabulary, watchdog bookkeeping, deadline kill timers,
    the allocator's congestion probes, and per-app metrics.  What differs
    is only the {!dispatch} substrate: how a runtime picks, places and
    preempts tasks.  A runtime instantiates the core by building its
    execution units, installing a [dispatch] record over them, and keeping
    for itself nothing but its dispatch mechanics (timer ticks and kicks,
    or the serial dispatcher).  Work stealing, steal-half included, is a
    {!Sched_ops} policy on the per-CPU runtime, not a runtime.

    A built [t] is the one runtime handle: {!spawn}, {!kill}, {!wakeup},
    {!create_app}, {!attach_be_app}, the broker gate, tracing, the shared
    counters and {!register_metrics} are implemented here once, and every
    runtime-neutral consumer takes a [t] ([Percpu.runtime] and
    [Hybrid.runtime] hand it out). *)

(** One execution unit: a worker core's scheduling state.  Runtimes wrap
    it with their own per-unit extras (kick flags, assignment
    generations). *)
type exec = {
  exec_core : int;
  mutable exec_slot : int;  (** index among [d_units]; [-1] before install *)
  mutable current : Task.t option;
  mutable completion : Eventq.handle;
      (** segment-end event for [current]; [Eventq.null] when none armed *)
  mutable completion_fire : unit -> unit;
      (** the unit's one stable completion closure (installed by
          {!install_dispatch}); re-armed per segment instead of allocating
          a closure each *)
  mutable switch_done : Engine.timer;
      (** the unit's one stable switch-done timer (installed by
          {!install_dispatch}): {!run_after_switch} re-arms it per
          dispatch, and {!kill} disarms it *)
  mutable incoming : int;
      (** app id of an assignment in flight toward the unit, [-1] if none;
          synchronous dispatch never has one.  Write it only through
          {!set_incoming}. *)
  mutable busy_from : Time.t;
  mutable active_app : int;
  mutable stolen_until : Time.t;
}

(** The DISPATCH substrate: a record of closures (the {!Sched_ops} idiom),
    installed after construction via {!install_dispatch}.  Handle
    operations call these hooks wherever the two mechanisms differ. *)
type dispatch = {
  d_name : string;  (** the [runtime] metric label *)
  d_units : exec array;  (** every execution unit, in core order *)
  d_pinnable : bool;  (** whether {!spawn}'s [cpu] may pin a task *)
  d_enqueue_cpu : exec -> int;
      (** which queue a yielded task re-enters: the unit's own core
          (per-CPU) or the dispatcher's global queue (centralized) *)
  d_released : exec -> unit;
      (** the unit gave its task up: bump assignment generations,
          invalidate stale timers *)
  d_reschedule : exec -> prev:Task.t option -> unit;
      (** find the unit something to run *)
  d_place : Task.t -> cpu:int option -> unit;
      (** a freshly admitted task's placement: policy init, enqueue, and a
          kick (per-CPU) or a dispatcher pump *)
  d_wake : Task.t -> waker_cpu:int -> unit;
      (** an awakened task's placement; [waker_cpu] is [-1] when unknown *)
  d_kthread : exec -> Kmod.kthread -> unit;
      (** set up a kthread just parked on the unit's core *)
  d_evict : exec -> unit;  (** the broker capped this unit: preempt it *)
  d_redrive : exec -> unit;  (** the broker handed this unit back *)
  d_preempt_be : exec -> bool;
      (** preempt the unit's running BE task, if any; reports whether it
          did *)
  d_be_grown : unit -> unit;  (** the BE allowance grew: wake the units *)
  d_alloc_event : Allocator.event -> unit;  (** trace an allocator decision *)
  d_be_attached : unit -> unit;  (** BE work just arrived: wake the units *)
}

val null_dispatch : dispatch

type t = {
  machine : Machine.t;
  engine : Engine.t;
  kmod : Kmod.t;
  mutable kthreads : Kmod.kthread option array array;
      (** app id -> its kthread on each unit, indexed by [exec_slot]; an
          app with none holds the empty array *)
  mutable by_id : App.t array;
      (** app id -> app, daemon (id 0) included; ids are dense, so
          [next_app_id] bounds the known ones *)
  mutable apps : App.t list;  (** reverse creation order *)
  daemon : App.t;
  mutable policy : Sched_ops.instance;
  mutable be_app : App.t option;
  be_queue : Runqueue.t;
  mutable lc_queued : int;
      (** LC tasks in the policy's queues (one killed there counts until
          it is discarded); kept by the runqueue calls below *)
  mutable enq_stamps : Time.t array;
      (** their enqueue times, oldest at [enq_first]: a ring grown by
          doubling *)
  mutable enq_first : int;
  mutable be_running : int;
      (** units whose current task is BE; {!begin_run} and the unit's
          release keep it, {!attach_be_app} recounts it *)
  mutable be_incoming : int;
      (** units whose [incoming] is the BE app; {!set_incoming} keeps it *)
  mutable busy_total : int;
      (** every app's [busy_ns] summed, the daemon's included; charging a
          unit's busy segment keeps it *)
  mutable running_units : int array;
      (** app id -> units whose current task is the app's, grown with
          [by_id]; {!begin_run} and the unit's release keep it *)
  mutable running_from : int array;
      (** app id -> the [busy_from] of those units, summed; {!begin_run},
          the unit's release and charging its busy segment keep it *)
  mutable running_total : int;  (** [running_units] summed *)
  mutable running_from_total : int;  (** [running_from] summed *)
  mutable be_allowance : int;
  mutable core_allowance : int;
      (** units (a prefix of [d_units], by slot) this runtime may occupy
          at all: a machine-level core broker's grant.  [max_int] —
          the single-tenant default — disables every gate. *)
  mutable allocator : Allocator.t option;
  rescue_detect : Histogram.t;
  wakeups : Histogram.t;  (** wakeup-to-dispatch latency *)
  queue_depth : Timeseries.t;
  mutable switches : int;
  mutable app_switches : int;
  mutable preempts : int;
  mutable be_preempts : int;
  mutable ticks : int;
  mutable rescues : int;
  mutable failovers : int;
  mutable deadline_drops : int;
  mutable trace : Trace.t option;
  mutable dispatch : dispatch;
  mutable slot_of : int array;
      (** core id -> [exec_slot] of its unit, [-1] for a core that is not
          a unit (built by {!install_dispatch}) *)
  mutable idle : int array;
      (** the idle mask: bit [s mod 62] of word [s / 62] is set iff unit
          [s] runs nothing.  {!begin_run} and the unit's release — the
          only writers of [current] — keep it up to date. *)
  mutable sched_view : Sched_ops.view option;
      (** the scheduler view, built once by {!install_dispatch} *)
  mutable metric_extras : Registry.labels -> Registry.t -> unit;
  mutable next_app_id : int;
      (** per-run app-id allocator (1, 2, ...; the daemon is 0).  Ids used
          to come from a process-wide counter, which made simulations in
          different domains perturb each other; per-run state keeps every
          run a pure function of its seed under any parallelism. *)
  mutable next_task_id : int;  (** per-run task-id allocator (1, 2, ...) *)
}

val create : Machine.t -> Kmod.t -> t
(** A core with the null dispatch installed; {!install_dispatch} and
    {!install_policy} complete construction.  Every cross-application
    switch emits an [App_switch] trace instant. *)

val now : t -> Time.t
val make_exec : int -> exec

val install_dispatch : t -> dispatch -> unit
(** Install the substrate: number the unit slots, index them by core,
    build the idle mask and the scheduler {!view}, and reset the BE
    allowance to the unit count.
    @raise Invalid_argument if two units share a core or a core id is
    negative. *)

val unit_capped : t -> exec -> bool
(** Whether the broker gate forbids this unit from running anything: its
    slot falls beyond {!field-t.core_allowance}.  Allowed units are always
    the [d_units] prefix, so a grant of [n] cores maps deterministically
    to units [0..n-1]. *)

val set_core_allowance : t -> int -> unit
(** How many units this runtime may occupy at all: a machine-level core
    broker's grant (clamped at 0).  Allowed units are always the
    creation-order prefix.  Shrinking evicts tasks running on newly capped
    units ([d_evict]); growing redrives the units handed back
    ([d_redrive]).  The default, [max_int], disables the gate. *)

val view : t -> Sched_ops.view
(** The runtime view handed to policy constructors, derived entirely from
    the DISPATCH units and built once by {!install_dispatch}: its
    [is_idle] and [pick_idle] read the idle mask, so neither allocates
    nor scans the units.
    @raise Invalid_argument before {!install_dispatch} (there are no
    units to view yet). *)

val slot_of_core : t -> int -> int
(** The [exec_slot] of the unit on this core; [-1] for a core that is not
    a unit. *)

val is_idle : t -> int -> bool
(** Whether the unit on this core runs nothing and is not broker-capped
    ({!unit_capped}); [false] for a core that is not a unit.  O(1). *)

val first_idle_slot : t -> int
(** The lowest slot whose unit {!is_idle}, or [-1]: the mask's lowest set
    bit below the core allowance.  Units are in core order, so this is
    the first idle core in [d_units] order.  O(units / 62). *)

val install_policy : t -> Sched_ops.ctor -> unit
(** Build the LC policy and install it (after {!install_dispatch}: the
    constructor gets the {!view}). *)

(** {1 Applications and kthreads} *)

val find_app : t -> int -> App.t
(** O(1); raises [Not_found] on unknown ids (daemon is id 0). *)

val new_app : t -> name:string -> App.t

val create_app : t -> name:string -> App.t
(** Launch an application: one parked kernel thread per unit, each handed
    to [d_kthread]. *)

val activate_daemon : t -> unit
(** Park and activate the daemon's kthread on every unit (§4.1); the last
    construction step, after {!install_policy}. *)

val kthread : t -> app:int -> core:int -> Kmod.kthread
(** The kthread of [app] on a unit's core.
    @raise Not_found if there is none. *)

val is_be : t -> Task.t -> bool

val be_occupancy : t -> int
(** Units the BE application occupies right now, in-flight assignments
    included: [be_running + be_incoming].  O(1). *)

val set_incoming : t -> exec -> int -> unit
(** Record the app id of an assignment now in flight toward the unit
    ([-1]: none, it landed or was dropped), keeping [be_incoming]. *)

val set_be_allowance : t -> int -> unit
(** How many units BE may occupy (the allocator's reclaim/grant muscle).
    Shrinking preempts running BE tasks ([d_preempt_be]) until BE fits;
    growing calls [d_be_grown]. *)

(** {1 Accounting and trace vocabulary} *)

val trace_instant : t -> core:int -> Trace.instant_kind -> string -> unit

val app_switch : t -> exec -> Task.t -> Time.t
(** Cross-application switch through the kernel module; returns the
    charged cost. *)

(** {1 The task lifecycle} *)

val arm_completion : t -> exec -> Task.t -> unit

val begin_run : t -> exec -> Task.t -> switch_cost:Time.t -> Time.t
(** Put the task on the unit ([current], idle bit cleared, [be_running]
    kept): lifecycle state, attribution stamping, the wakeup-latency
    sample.  Returns when execution begins (after the switch cost). *)

val run_after_switch : t -> exec -> switch_cost:Time.t -> unit
(** Arm the unit's switch-done timer for the task placed by {!begin_run}:
    after [switch_cost] the task's body starts.  Re-arming supersedes a
    stale pending firing; nothing is allocated. *)

val depose : t -> exec -> overhead:Time.t -> Task.t option
(** Take the running task off its unit (preemption, rescue), charging the
    receiver-side [overhead] to it.  Returns the deposed task; the caller
    requeues it and reschedules the unit.  [None] if the unit is not
    mid-segment. *)

(** {1 The runqueues}

    Every task enters and leaves a runqueue through these four calls, the
    only ones that choose between the BE queue and the LC policy.  LC
    entries and exits keep [lc_queued] and the enqueue stamps (the
    allocator's queue-length and oldest-wait signals) and record each new
    count into {!queue_depth_series}: before the policy's enqueue or
    wakeup, after each task it hands out.  Calling the policy's queue
    operations directly bypasses that count. *)

val enqueue : t -> cpu:int -> reason:Sched_ops.reason -> Task.t -> unit
(** BE: to the BE queue's head when [reason] is [Enq_preempted], its tail
    otherwise.  LC: counted, then the policy's [task_enqueue] on [cpu]. *)

val place_woken : t -> waker_cpu:int -> Task.t -> int
(** Queue a woken task and return the core to kick.  BE: to the BE
    queue's tail, returning its [last_core].  LC: counted, then placed by
    the policy's [task_wakeup]. *)

val next_lc : t -> cpu:int -> balance:bool -> Task.t option
(** The policy's [task_dequeue], then its [sched_balance] when [balance].
    Each task taken is counted out; one killed while queued is discarded
    ({!discard_killed}) and the search goes on. *)

val next_be : t -> Task.t option
(** The BE queue's head, skipping tasks killed while queued. *)

val discard_killed : t -> Task.t -> bool
(** Whether a task just dequeued (or whose assignment just landed) was
    killed while queued; if so it is discarded here, and the caller
    dequeues again.  Kills of queued tasks are lazy: the drop is accounted
    at kill time and nothing searches the runqueues. *)

(** {1 Wakeups} *)

val wakeup : t -> ?waker_cpu:int -> Task.t -> unit
(** [task_wakeup]: make a blocked task runnable again — state transition,
    stall attribution, trace instant — and hand it to the mechanism's
    [d_wake] placement.  Non-blocked tasks get their pending-wake flag set
    instead. *)

val fault_current : t -> core:int -> duration:Time.t -> bool
(** §6 "Blocking events": block the task currently running on [core] for
    [duration] (a page fault or blocking syscall observed by the
    userfaultfd monitor) and reschedule other work — possibly another
    application's — on the unit meanwhile.  [false] if the unit was not
    running a task; raises [Invalid_argument] on an unmanaged core. *)

(** {1 Deadlines} *)

val kill : t -> ?on_drop:(Task.t -> unit) -> Task.t -> unit
(** Forcibly terminate a task wherever it is: running (taken off its unit
    — found in O(1) through its [last_core] — and discarded, its pending
    completion or switch-done firing cancelled), runnable or in flight
    (flagged; discarded before it runs), or blocked (never woken).  A no-op on exited or already-killed
    tasks.  Counted in {!deadline_drops} and the app summary's drops. *)

(** {1 Task admission} *)

val spawn :
  t -> App.t -> name:string -> ?cpu:int -> ?arrival:Time.t -> ?service:Time.t ->
  ?record:bool -> ?deadline:Time.t -> ?on_drop:(Task.t -> unit) -> Coro.t ->
  Task.t
(** Create a task and hand it to the mechanism's placement.  [cpu] pins
    the initial placement on a mechanism that can pin (per-CPU; default:
    an idle core, else round-robin).  When [record] (default true) the
    task's completion is recorded into the application's summary.

    [deadline] arms a kill timer [deadline] ns from now: a task that has
    not exited by then is forcibly terminated ({!kill}), counted as a
    deadline drop, and [on_drop] is called — every spawn is accounted for
    exactly once.

    @raise Invalid_argument on a non-positive [deadline], or a [cpu] that
    is not a managed unit or that the mechanism cannot pin (a serial
    dispatcher); checked before anything is admitted. *)

(** {1 Watchdog bookkeeping} *)

val rescued : t -> exec -> late:Time.t -> unit
(** Count and trace a watchdog rescue; the runtime performs the actual
    recovery itself. *)

val start_watchdog : t -> bound:Time.t option -> (bound:Time.t -> unit) -> unit
(** Arm the periodic scan at half the bound (violations caught within
    ~1.5x); no-op when [bound] is [None]. *)

val freeze_for_steal : t -> exec -> duration:Time.t -> unit
(** Host-kernel steal: freeze the running segment for the outage and move
    [run_start] with it so quantum/watchdog clocks exempt stolen time. *)

(** {1 Busy accounting} *)

val lc_busy_ns : t -> int
(** Busy time of every app but the BE one, the daemon's and in-flight
    segments included: [busy_total] less the BE app's, plus the other
    apps' running units times now, less their summed [busy_from].  O(1). *)

val total_busy_ns : t -> int
(** [busy_total]: recorded busy time over every app.  O(1). *)

val congestion : t -> Allocator.raw
(** The whole-runtime congestion sample a machine-level broker reads: LC
    queue length ([lc_queued]) plus BE queue length, oldest LC wait, and
    total busy nanoseconds including in-flight segments. *)

(** {1 BE attachment and the core allocator} *)

val attach_be_app :
  t -> ?alloc:Allocator.config -> App.t -> chunk:Time.t -> workers:int -> unit
(** Co-schedule [app] (created by this runtime) as the best-effort
    application: [workers] batch tasks, each an endless sequence of
    [chunk]-sized compute segments, kept outside the LC policy's
    runqueues.  Starts the core allocator ([alloc], default
    {!Allocator.default_config}): LC registered on the LC queue's length
    and oldest wait, BE on its queue backlog, {!set_be_allowance} as
    the muscle; every core moved charges the §5.4 inter-application switch
    cost on the BE side.  Raises [Invalid_argument] before admitting
    anything if a BE app is already set, [app] is foreign, the bounds
    break [0 <= be_guaranteed <= be_burstable <= managed cores], or the
    interval or [degrade_after] is not positive. *)

val allocator : t -> Allocator.t option
(** The running core allocator, once {!attach_be_app} has started it. *)

val set_trace : t -> Trace.t -> unit
(** Record scheduling activity (run spans, preemptions, wakeups,
    application switches, faults, mode switches) into the trace. *)

(** {1 Counters} *)

val task_switches : t -> int
val app_switches : t -> int

val preemptions : t -> int
(** LC tasks preempted off their unit (per-CPU dispatch also counts its
    BE preemptions here). *)

val be_preemptions : t -> int
val timer_ticks : t -> int

val watchdog_rescues : t -> int
(** Stuck units rescued by the watchdog. *)

val failovers : t -> int
(** Dispatcher failovers (always 0 without a serial dispatcher). *)

val rescue_detection : t -> Histogram.t
(** Detection latency per rescue: time past the watchdog bound. *)

val deadline_drops : t -> int
val wakeup_hist : t -> Histogram.t

val queue_depth_series : t -> Timeseries.t
(** LC policy queue length over time (one sample per change). *)

val apps : t -> App.t list
(** Applications created on this runtime (excluding the daemon). *)

(** {1 Metrics} *)

val add_metrics : t -> (Registry.labels -> Registry.t -> unit) -> unit
(** Append a mechanism- or policy-specific registration to
    {!register_metrics}. *)

val register_metrics : t -> ?labels:Registry.labels -> Registry.t -> unit
(** The one schema: the shared counters, histograms and queue-depth
    series as [skyloft_runtime_*] labelled [runtime=d_name], then the
    {!add_metrics} extras, then every application's counters,
    response-time histogram and latency attribution ([skyloft_app_*]).
    Call after the applications have been created.  Registration is
    pull-based and never perturbs the simulation. *)
