module Time = Skyloft_sim.Time
module Machine = Skyloft_hw.Machine
module Kmod = Skyloft_kernel.Kmod

(** The per-CPU Skyloft runtime (Figure 2a).

    Each isolated core runs the main scheduling loop: dequeue from the
    policy's runqueue, run the task, balance when idle.  Preemption comes
    from user-space timer interrupts — the LAPIC timer delegated through
    UINTR per §3.2 — handled by the global user-interrupt handler of
    Listing 1.  Tasks from multiple applications share the runqueues; a
    switch to a task of a different application goes through the kernel
    module ({!Kmod.switch_to}), charging the inter-application switch cost.

    The loop, ticks, kicks, preemption and parking are {!Percore}'s, run
    with a preempted LC task requeued on its own core and no runtime
    quantum; this module adds the UINTR/LAPIC wiring, the watchdog rescue
    and placement.

    Costs charged per event:
    - intra-application task switch: {!Skyloft_hw.Costs.uthread_yield_ns}
    - inter-application task switch: {!Skyloft_hw.Costs.app_switch_ns}
    - each timer tick: user-timer receive + the SN re-post SENDUIPI
    - preemption via user IPI ({!Skyloft_hw.Vectors.uvec_preempt}): UIPI
      delivery and receive costs; a broker eviction or BE-allowance
      shrink: the receive cost.  BE preemptions count only in
      {!Runtime_core.be_preemptions}. *)

type t

val create :
  Machine.t ->
  Kmod.t ->
  cores:int list ->
  ?timer_hz:int ->
  ?preemption:bool ->
  ?park:Time.t * Time.t ->
  ?watchdog:Time.t ->
  Sched_ops.ctor ->
  t
(** Build the runtime on the isolated [cores].  When [preemption] (default
    true), every core's LAPIC timer is programmed at [timer_hz] (default
    100,000 — Table 5) and delegated to user space.  The policy constructor
    receives the runtime's {!Sched_ops.view}.

    [park = (idle_after, resume_cost)] models Shenango-style core
    reallocation: a core idle for [idle_after] is returned to the kernel,
    and handing it back to the runtime costs [resume_cost] extra on the
    next dispatch — the "frequent core adjustments, yielding and wake-ups"
    the paper blames for Shenango's low-load tail (§5.3).  A policy may
    park an idle core at once instead ([sched_idle_park], the steal-storm
    brake of {!Skyloft_policies.Work_stealing.steal_half}).  Skyloft
    itself does not park (idle loops keep spinning).

    Each dispatch also adds the policy's [sched_migration_charge] for the
    core (zero unless the policy charges for migrated work).

    [watchdog] arms the per-core watchdog: a periodic scan (twice per
    bound) that detects cores stuck on one task for longer than the bound
    with no scheduling point — a lost timer tick, a disabled preemption
    path, a poisoned task — and rescues them: re-arm the LAPIC timer,
    re-post the pending-tick user IPI if the receiver is masked for timer
    delegation, and force a preemption.  Rescues are counted and traced
    ({!Runtime_core.watchdog_rescues}, {!Runtime_core.rescue_detection}).
    Cores inside a host-kernel steal ({!Kmod.steal_core}) are exempt
    until hand-back.

    @raise Invalid_argument on no cores, a non-positive [timer_hz] (even
    without preemption) or a non-positive [watchdog] bound, before
    anything is built or parked on [kmod]. *)

val runtime : t -> Runtime_core.t
(** The runtime handle: spawn, kill, wakeup, applications, BE attachment,
    the broker gate, tracing, counters and metrics all live there.  This
    module keeps only what the per-CPU mechanism owns. *)

val register_uvec : t -> uvec:int -> (int -> unit) -> unit
(** Register a user-space driver handler for a delegated peripheral
    interrupt (§6): when user vector [uvec] is recognised on a managed
    core, the runtime charges the user-IPI receive cost and calls the
    handler with the core id.  Vectors 0 (timer) and 1 (preempt) are
    reserved; [uvec] must lie in 0-63. *)

val start_utimer : t -> src_core:int -> hz:int -> unit
(** Emulate per-CPU timers from a dedicated core ([src_core], outside the
    managed set) that broadcasts preemption user IPIs at [hz] to every
    worker (the "utimer" of §5.3).  Costs a whole core and pays cross-core
    IPI latency per tick — the paper measures a 13% performance loss
    versus LAPIC timer delegation.

    @raise Invalid_argument unless the runtime was created with
    [~preemption:false]: a timer-delegated context's notification vector
    is the timer vector, so the broadcast IPIs would land there. *)

val current : t -> core:int -> Task.t option
val is_idle : t -> core:int -> bool

val parks : t -> int
(** Idle cores parked back to the kernel (see {!create}'s [park];
    registered as [skyloft_percpu_parks_total]). *)

val unparks : t -> int
(** Parked cores woken for new work (each paid the resume cost). *)
