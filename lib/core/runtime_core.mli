module Time = Skyloft_sim.Time
module Coro = Skyloft_sim.Coro
module Engine = Skyloft_sim.Engine
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

    A built [t] is the one runtime handle: {!spawn}, {!submit}, {!kill}, {!wakeup},
    {!create_app}, {!attach_be_app}, the broker gate, tracing, the shared
    counters and {!register_metrics} are implemented here once, and every
    runtime-neutral consumer takes a [t] ([Percpu.runtime] and
    [Hybrid.runtime] hand it out). *)

(** One execution unit: a worker core's scheduling state.  Runtimes wrap
    it with their own per-unit extras (kick flags, assignment
    generations).  Only this module writes it; the accessors below read
    it. *)
type exec

val exec_core : exec -> int

val exec_slot : exec -> int
(** The unit's index among [d_units]; [-1] before {!install_dispatch}. *)

val current : exec -> Task.t
(** The task on the unit: {!Task.nil} while it runs nothing. *)

val completion : exec -> Engine.timer
(** The unit's one stable segment-end timer for {!current} (installed by
    {!install_dispatch}): armed per segment, moved by time steals,
    disarmed when the task leaves the unit. *)

val switch_pending : exec -> bool
(** Whether the unit's switch-done timer ({!run_after_switch}) is armed. *)

val incoming : exec -> int
(** The app id of an assignment in flight toward the unit, [-1] if none;
    synchronous dispatch never has one.  Written by {!set_incoming}. *)

val active_app : exec -> int
(** The app whose kthread is active on the unit's core. *)

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
  d_reschedule : exec -> prev:Task.t -> unit;
      (** find the unit something to run; [prev] is the task that just
          left it, or {!Task.nil} *)
  d_place : Task.t -> cpu:int option -> unit;
      (** a freshly admitted task's placement: policy init, enqueue, and a
          kick (per-CPU) or a dispatcher pump *)
  d_wake : Task.t -> unit;  (** an awakened task's placement *)
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

(** The runtime handle.  Only this module writes it: other modules read
    it through the accessors below and change it through the operations
    of this interface, so the ledgers {!check_ledgers} verifies have one
    owner. *)
type t

val create : Machine.t -> Kmod.t -> t
(** A core with the null dispatch installed; {!install_dispatch} and
    {!install_policy} complete construction.  Every cross-application
    switch emits an [App_switch] trace instant. *)

val now : t -> Time.t
val machine : t -> Machine.t
val engine : t -> Engine.t
val kmod : t -> Kmod.t

val policy : t -> Sched_ops.instance
(** The LC policy {!install_policy} built. *)

val dispatch : t -> dispatch
(** The installed substrate ({!null_dispatch} before {!install_dispatch}). *)

val be_queue : t -> Runqueue.t
(** The BE application's runqueue, outside the LC policy. *)

val lc_queued : t -> int
(** LC tasks in the policy's queues (one killed there counts until it is
    discarded), kept by the runqueue calls below. *)

val be_allowance : t -> int
(** Units BE may occupy right now ({!set_be_allowance}). *)

val trace : t -> Trace.t option
(** The trace {!set_trace} installed, if any. *)

val make_exec : int -> exec

val install_dispatch : t -> dispatch -> unit
(** Install the substrate: number the unit slots, index them by core,
    build the idle mask and the scheduler {!view}, and reset the BE
    allowance to the unit count.
    @raise Invalid_argument if two units share a core or a core id is
    negative. *)

val unit_capped : t -> exec -> bool
(** Whether the broker gate forbids this unit from running anything: its
    slot falls beyond the core allowance ({!set_core_allowance}).
    Allowed units are always the [d_units] prefix, so a grant of [n]
    cores maps deterministically to units [0..n-1]. *)

val set_core_allowance : t -> int -> unit
(** How many units this runtime may occupy at all: a machine-level core
    broker's grant (clamped at 0).  Allowed units are always the
    creation-order prefix.  Shrinking evicts tasks running on newly capped
    units ([d_evict]); growing redrives the units handed back
    ([d_redrive]).  The default, [max_int], disables the gate. *)

val view : t -> Sched_ops.view
(** The runtime view handed to policy constructors, derived entirely from
    the DISPATCH units and built once by {!install_dispatch}: its
    [pick_idle] reads the idle mask, so it neither allocates nor scans
    the units.
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
(** Units the BE application occupies right now: those running a BE
    task plus those a BE assignment is in flight toward.  O(1). *)

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

val begin_run : t -> exec -> Task.t -> switch_cost:Time.t -> Time.t
(** Put the task on the unit ({!current}, idle bit cleared, BE occupancy
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
    allocator's queue-length and oldest-wait signals) and, once
    {!watch_queue_depth} has been called, record each new count into its
    series: before the policy's enqueue or wakeup, after each task it
    hands out.  Calling the policy's queue operations directly bypasses
    that count. *)

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

val wakeup : t -> Task.t -> unit
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

val submit :
  t -> App.t -> name:string -> arrival:Time.t -> service:Time.t ->
  hook:(Task.t -> unit) -> int -> unit
(** [submit t app ~name ~arrival ~service ~hook request] places one
    request stage: a task with the shared {!Task.staged} body that
    computes for [service] ns (preemption and faults slice it as any
    compute), carrying [arrival] and the caller's [request] key.  When
    the compute ends, [hook] runs with the task, at the instant and in
    the order where a spawned task's continuation would ([fun () -> k ();
    Coro.Exit]): before the unit's busy time is accounted and the unit
    released, and before it reschedules.  So a hook that submits the
    next stage places it exactly as that continuation would.  The stage
    then exits.  Nothing is recorded into the app's summary, and no
    handle is returned: nothing outside the runtime holds a submitted
    task.  Build [hook] once (per app or per caller), not per stage:
    then a stage allocates nothing but its task. *)

(** {1 Watchdog bookkeeping} *)

val rescued : t -> exec -> late:Time.t -> unit
(** Count and trace a watchdog rescue; the runtime performs the actual
    recovery itself. *)

val start_watchdog : t -> bound:Time.t option -> (bound:Time.t -> unit) -> unit
(** Arm the periodic scan at half the bound (violations caught within
    ~1.5x); no-op when [bound] is [None]. *)

val freeze_for_steal : exec -> duration:Time.t -> unit
(** Host-kernel steal: freeze the running segment for the outage and move
    [run_start] with it so quantum/watchdog clocks exempt stolen time.
    When the core comes back is {!Skyloft_kernel.Kmod.stolen_until}'s. *)

(** {1 Busy accounting} *)

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
    anything if a BE app is already set, [app] is foreign,
    [be_guaranteed] lies outside [\[0, managed cores\]], or
    [degrade_after] is not positive. *)

val allocator : t -> Allocator.t option
(** The running core allocator, once {!attach_be_app} has started it. *)

val set_trace : t -> Trace.t -> unit
(** Record scheduling activity (run spans, preemptions, wakeups,
    application switches, faults, mode switches) into the trace. *)

val watch_queue_depth : t -> Timeseries.t
(** The LC policy queue length over time, one sample per change, recorded
    from the first call on: an unwatched runtime records nothing.  The
    first call creates the series and, if LC work is queued, seeds it with
    one sample of the current depth at the current time; later calls
    return the same series.  {!register_metrics} watches. *)

(** {1 Counters} *)

val task_switches : t -> int
val app_switches : t -> int

val preemptions : t -> int
(** LC tasks preempted off their unit. *)

val be_preemptions : t -> int
val timer_ticks : t -> int

val watchdog_rescues : t -> int
(** Stuck units rescued by the watchdog: the count of
    {!rescue_detection}. *)

val failovers : t -> int
(** Dispatcher failovers (always 0 without a serial dispatcher). *)

val rescue_detection : t -> Histogram.t
(** Detection latency per rescue: time past the watchdog bound. *)

val deadline_drops : t -> int
val wakeup_hist : t -> Histogram.t

val count_task_switch : t -> unit
(** Count an intra-application task switch in {!task_switches}. *)

val count_preemption : t -> Task.t -> unit
(** Count a preemption of the task: in {!be_preemptions} for a BE task,
    in {!preemptions} for an LC one. *)

val count_tick : t -> unit
(** Count a timer interrupt in {!timer_ticks}. *)

val failover : t -> core:int -> unit
(** Count a dispatcher failover in {!failovers} and trace it on [core]. *)

(** {1 Metrics} *)

val add_metrics : t -> (Registry.labels -> Registry.t -> unit) -> unit
(** Append a mechanism- or policy-specific registration to
    {!register_metrics}. *)

val register_metrics : t -> ?labels:Registry.labels -> Registry.t -> unit
(** The one schema: the shared counters, histograms and queue-depth
    series as [skyloft_runtime_*] labelled [runtime=d_name], then the
    {!add_metrics} extras, then every application's counters,
    response-time histogram and latency attribution ([skyloft_app_*]).
    Call after the applications have been created.  The queue-depth
    series is the one {!watch_queue_depth} returns, so it holds the
    changes from registration on.  Registration is pull-based and never
    perturbs the simulation. *)

(** {1 Test hook} *)

val check_ledgers : t -> unit
(** Verify every ledger the runtime keeps in O(1) against the scan or
    fold it replaces: no task current on two units; BE occupancy (units
    running BE, BE assignments in flight, and their union) against the
    units; recorded busy time against the apps' sum, the daemon's
    included; the LC busy time the allocator samples against that sum less
    the BE app's plus the other apps' in-flight segments; the running
    units' count and [busy_from] sum, of the BE app's and in total,
    against a scan; and the in-flight busy time {!congestion} adds.
    Raises [Failure] naming the first ledger that drifted.
    O(units² + apps). *)
