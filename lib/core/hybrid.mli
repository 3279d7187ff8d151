module Time = Skyloft_sim.Time
module Machine = Skyloft_hw.Machine
module Kmod = Skyloft_kernel.Kmod

(** A hybrid Skyloft runtime: centralized dispatch under low load, per-CPU
    timer-driven scheduling past a load threshold.

    The paper's two runtime shapes trade off against each other: the
    centralized dispatcher (Figure 2b) gives the best low-load tail latency
    (one global queue, no work stealing) but its serial dispatcher is a
    scalability ceiling, while per-CPU timer scheduling (Figure 2a) scales
    but pays queue-imbalance tail at low load.  This runtime switches
    between the two *mechanisms* over one shared {!Runtime_core} substrate:
    a monitor samples the LC queue depth and, with hysteresis, hands the
    cores from the serial dispatcher to per-core preemption timers and
    back.  Every mode transition is a [Mode_switch] trace instant.

    [Percore] mode is no third mechanism: it runs the per-CPU runtime's
    path ({!Percore}), requeueing preempted LC tasks on the shared queue
    and enforcing [quantum] at the tick.  This module keeps the serial
    dispatcher, failover, the mode monitor and the tick source.

    Created with [~adaptive:false] the runtime never leaves [Central]
    mode: that pinned shape {e is} the centralized Skyloft runtime
    (Figure 2b, Shinjuku-style processor sharing, §5.2), and with a
    different {!mechanism} cost vector it hosts the ghOSt and original
    Shinjuku comparators.

    The dispatcher is modelled as a serial resource: every operation
    (assignment, preemption send) occupies it for the mechanism's cost, so
    a saturated dispatcher becomes the bottleneck — the scalability ceiling
    the paper attributes to centralized designs.  A best-effort (BE)
    application can be co-scheduled: workers fall back to BE work when the
    LC queue is empty, and the core allocator reclaims BE cores when
    congestion appears (Shenango's core-allocation policy, §5.2 "Multiple
    workloads"). *)

(** Cost vector of the dispatcher's preemption/dispatch mechanism: the
    dispatcher's work per assignment, the preemption's send, delivery and
    worker-side receive costs, and the worker's task switch. *)
type mechanism

val dispatch_cost : mechanism -> Time.t
(** Dispatcher work per assignment decision. *)

val skyloft_mechanism : mechanism
(** User IPIs + user-level task switch (Table 6 / Table 7). *)

val shinjuku_mechanism : mechanism
(** Original Shinjuku: Dune posted interrupts, slightly costlier delivery
    than user IPIs — hence near-parity with Skyloft in Figure 7a. *)

val ghost_mechanism : mechanism
(** ghOSt (§5.2 comparator): a user-space global agent whose decisions are
    transactions committed into the kernel, so every dispatch pays ~1.5 µs
    of agent/transaction work; preemption rides kernel IPIs and workers
    are kernel threads.  Those costs produce its lower maximum throughput
    (~0.8×) and ~3× higher low-load tail latency in Figure 7. *)

type mode = Central | Percore

type t

val create :
  Machine.t ->
  Kmod.t ->
  dispatcher_core:int ->
  worker_cores:int list ->
  quantum:Time.t ->
  ?adaptive:bool ->
  ?mechanism:mechanism ->
  ?watchdog:Time.t ->
  Sched_ops.ctor ->
  t
(** In [Central] mode the [dispatcher_core] is the serial resource
    (assignment + quantum preemption over the [mechanism]'s IPIs, default
    {!skyloft_mechanism}); in [Percore] mode workers self-schedule from
    the shared queue and per-core timers at 100 kHz (Table 5) drive
    preemption.  The monitor samples the LC queue every 25 µs and
    switches to [Percore] when the depth exceeds twice the worker count,
    back to [Central] when it falls to half the worker count or below —
    the gap is the hysteresis band.  [quantum <= 0] disables quantum
    preemption in both modes (run-to-completion, unless the policy
    preempts at a [Percore] tick).

    [adaptive] (default [true]) arms the monitor and the per-core timers;
    [~adaptive:false] arms neither, so the runtime stays in [Central] mode
    for its whole life.

    [watchdog] arms the recovery watchdog: a periodic scan (twice per
    bound) that (a) fails the dispatcher over to a worker when the serial
    dispatcher is wedged more than a bound into the future (host-kernel
    steal — {!Runtime_core.failovers}), and (b) rescues workers still
    running one task a full bound past its expected preemption point —
    the quantum, or the tick period in [Percore] mode if larger — meaning
    the preemption was lost ({!Runtime_core.watchdog_rescues},
    {!Runtime_core.rescue_detection}).  Cores inside a
    {!Kmod.steal_core} outage are exempt until hand-back.

    @raise Invalid_argument on no worker cores, a dispatcher core also
    listed as a worker or a non-positive [watchdog] bound, before
    anything is built or parked on [kmod]. *)

val runtime : t -> Runtime_core.t
(** The runtime handle: spawn, kill, wakeup, applications, BE attachment,
    the broker gate, tracing, counters and metrics all live there.  A
    serial dispatcher cannot pin, so {!Runtime_core.spawn} rejects [~cpu];
    every spawned task enters the shared queue and the current mode
    decides whether the dispatcher assigns it or an idle worker picks it
    up directly. *)

val mode : t -> mode

val mode_switches : t -> int
(** Mode transitions performed by the monitor so far. *)

val dispatches : t -> int
(** Central-mode dispatcher assignments (zero while in [Percore]). *)

val queue_length : t -> int
(** LC tasks waiting in the shared queue. *)
