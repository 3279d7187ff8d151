module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Timeseries = Skyloft_stats.Timeseries

(** The core arbiter and the core allocator built on it.

    The arbiter is one periodic control loop (Shenango/Caladan's
    "iokernel" role, run in simulated time) that multiplexes a fixed pool
    of cores between registered bindings.  Every {!interval} it samples
    every binding's congestion signals (runqueue length,
    oldest-pending-task queueing delay, utilization), asks a {!Policy}
    for a per-binding decision, and arbitrates:

    - yields return cores to the free pool (never below the binding's
      guaranteed floor);
    - LC grants are served from the free pool first, then by {e stealing}
      from healthy BE bindings above their guaranteed floor;
    - BE grants are served from the free pool only.

    After every tick it checks conservation: the sum of grants never
    exceeds the pool, and every binding stays within its bounds.

    The arbiter itself never touches cores: every accepted transition
    calls the owner's [apply] callback, which enforces the new grant
    (through the kernel module, or a runtime's core allowance) and
    returns the virtual-time cost it charged — the paper's §5.4
    inter-application switch costs — which the arbiter accumulates.
    Decisions are exported as a bounded event log and, for each binding
    whose {!series} has been asked for, a core-count {!Timeseries}.

    The arbiter sits at two levels, and the constructor picks the rules
    that differ between them:
    - {!create} makes the {e allocator}: the applications of one runtime
      under one shared policy, with an arbiter-wide Static fallback while
      any signal is stale;
    - [Broker.create] makes the machine-level broker: whole runtimes under
      per-tenant policies and tenant health defenses. *)

type bounds = { guaranteed : int; burstable : int }
(** Per-binding core bounds: [guaranteed] is never reclaimed (not even by
    an LC steal); [burstable] caps growth. *)

(** Raw congestion sample an owner provides; the arbiter derives the
    policy-facing {!Policy.signal} (utilization from the busy-time delta
    over the interval). *)
type raw = {
  runq_len : int;
  oldest_delay : Time.t;
  busy_ns : int;  (** cumulative, including the in-flight segment *)
}

type health =
  | Healthy
  | Stale  (** congestion signal frozen: clamped to its floor, ignored *)
  | Quarantined  (** hoard cap tripped: clamped to its floor for a while *)
  | Crashed  (** everything reclaimed; out of arbitration for good *)
(** Allocator bindings are always [Healthy]; the broker's health machine
    moves tenants between the states. *)

(** {1 The arbiter} *)

val interval : Time.t
(** The control period at both levels: 5 µs, the paper's Shenango
    IOKernel interval. *)

type ('r, 'x) arbiter
(** One control loop: ['r] is the level's arbiter-wide rule state, ['x]
    its per-binding state. *)

type 'x binding
(** One registered app or tenant: its id, name, kind, bounds, signal
    sample and grant hook, granted cores, health and core-count series
    (once watched), and the level's own state ['x].  Only this module
    writes it. *)

val id : _ binding -> int
val name : _ binding -> string
val bounds : _ binding -> bounds
val sample : _ binding -> raw
(** Draw the binding's congestion signal now. *)

val grant : _ binding -> int
(** Cores granted now. *)

val stale_ticks : _ binding -> int
(** Consecutive ticks with a frozen signal: work queued, zero progress,
    and cores granted (or already {!Stale}). *)

val health : _ binding -> health

val ext : 'x binding -> 'x

type action =
  | Grant
  | Reclaim
  | Yield
  | Degrade
      (** allocator: signals went stale, fell back to Static ([id] = -1);
          broker: a tenant went stale and was clamped to its floor *)
  | Recover  (** the stale signal moves again *)
  | Quarantine  (** hoard cap tripped: clamped to the floor *)
  | Release  (** quarantine served out *)
  | Crash  (** tenant crashed: every core reclaimed, floor included *)

type event = {
  at : Time.t;
  id : int;  (** the binding; [-1] for allocator-wide mode transitions *)
  name : string;
  action : action;
  granted : int;  (** the binding's grant after the event *)
}

val arbiter :
  who:string ->
  member:string ->
  engine:Engine.t ->
  capacity:int ->
  on_event:(event -> unit) ->
  rules:'r ->
  decide:(('r, 'x) arbiter -> unit) ->
  ('r, 'x) arbiter
(** A level's constructor: [decide] samples the bindings (through
    {!signal_of}), applies the level's rules and writes one decision per
    binding into {!decisions}, which the round then arbitrates.  [who] and [member] name
    errors ("Broker", "tenant").  Raises [Invalid_argument] on a
    non-positive capacity. *)

val bind :
  ('r, 'x) arbiter ->
  id:int ->
  name:string ->
  kind:Policy.kind ->
  bounds:bounds ->
  initial:int ->
  sample:(unit -> raw) ->
  apply:(granted:int -> delta:int -> Time.t) ->
  'x ->
  unit
(** Register a binding.  [initial] cores are granted immediately
    (bounds-checked; the sum of initial grants may not exceed the pool).
    [sample] is called once now and once per tick; [apply] is called on
    every accepted transition with the new grant and the signed core
    delta, and returns the switch cost the owner charged.  Registration
    order is the arbitration order.  Raises [Invalid_argument] on
    duplicate ids, malformed bounds, or initial grants exceeding the
    pool. *)

val rules : ('r, 'x) arbiter -> 'r

val bindings : ('r, 'x) arbiter -> 'x binding array
(** In registration order, the order of every walk.  Read-only. *)

val signals : ('r, 'x) arbiter -> Policy.signal array
(** Each binding's signal, by position in {!bindings}, as {!signal_of}
    last filled it.  Read-only. *)

val decisions : ('r, 'x) arbiter -> Policy.decision array
(** Each binding's decision this round, by position in {!bindings}: the
    level's [decide] writes it, the round arbitrates it. *)

val find : ('r, 'x) arbiter -> int -> 'x binding
val now : ('r, 'x) arbiter -> Time.t
val set_health : 'x binding -> health -> unit

val signal_of : ('r, 'x) arbiter -> int -> raw -> Policy.signal
(** [signal_of t i raw] derives binding [i]'s policy signal from a raw
    sample into its slot of {!signals}, returns it, and advances the
    binding's stale-tick counter.  Call once per binding per tick. *)

val transition : ('r, 'x) arbiter -> 'x binding -> action:action -> delta:int -> unit
(** Move [delta] cores (signed; no-op at 0): adjust the grant, call
    [apply], charge its cost, record the series if it is watched, log the
    event. *)

val emit : ('r, 'x) arbiter -> 'x binding -> action:action -> unit
(** Log an edge that moves no cores. *)

exception Invariant_violation of string

val tick : ('r, 'x) arbiter -> unit
(** One round immediately (tests, benchmarks): the level's [decide], then
    the three arbitration phases, then the invariant check, which raises
    {!Invariant_violation} unless [sum granted <= capacity] and every
    binding holds at most its burstable ceiling and — unless crashed — at
    least its guaranteed floor. *)

val start : ('r, 'x) arbiter -> unit
(** Begin the periodic loop (first tick one interval from now). *)

val stop : ('r, 'x) arbiter -> unit
val granted : ('r, 'x) arbiter -> app:int -> int

val series : ('r, 'x) arbiter -> app:int -> Timeseries.t
(** The binding's core-count timeseries, one sample per change, recorded
    from the first call on: it starts with the grant at that time, and an
    unwatched binding records nothing.  Call it before the run to see the
    whole run. *)

val capacity : ('r, 'x) arbiter -> int
val free_cores : ('r, 'x) arbiter -> int

val grants : ('r, 'x) arbiter -> int
val reclaims : ('r, 'x) arbiter -> int
(** Transitions applied so far; [reclaims] counts forced reclaims, voluntary
    yields are separate. *)

val yields : ('r, 'x) arbiter -> int
val degradations : ('r, 'x) arbiter -> int
val quarantines : ('r, 'x) arbiter -> int
val releases : ('r, 'x) arbiter -> int
val crashes : ('r, 'x) arbiter -> int
val ticks : ('r, 'x) arbiter -> int

val charged_ns : ('r, 'x) arbiter -> Time.t
(** Total switch cost charged by the owners for arbiter transitions. *)

val events : ('r, 'x) arbiter -> event list
(** Chronological log of the most recent events (bounded at 4096). *)

val register_counters : ('r, 'x) arbiter -> prefix:string -> Skyloft_obs.Registry.t -> unit
(** Pull-based [<prefix>_*] transition counters (grants, reclaims, yields,
    ticks, charged switch cost, degradations) and the free-pool gauge. *)

(** {1 The allocator} *)

(** Runtime-facing configuration: which policy arbitrates BE core
    ownership and the BE application's floor; the BE application may
    burst to every managed core.  Both runtimes accept one of these and
    translate it into {!register} calls. *)
type config = {
  policy : Policy.t;  (** congestion policy driving grant/reclaim decisions *)
  be_guaranteed : int;  (** cores the BE app never loses *)
  degrade_after : int option;
      (** fall back to the Static policy after this many consecutive ticks
          of a stale congestion signal (an app with cores granted, work
          queued, and zero progress); [None] disables degradation *)
}

val default_config : unit -> config
(** Static policy, bounds [0 .. all cores], no degradation. *)

type rules

type t = (rules, unit) arbiter
(** The applications of one runtime under one shared policy. *)

val create :
  engine:Engine.t ->
  policy:Policy.t ->
  total_cores:int ->
  ?on_event:(event -> unit) ->
  ?degrade_after:int ->
  unit ->
  t

val register :
  t ->
  app:int ->
  name:string ->
  kind:Policy.kind ->
  bounds:bounds ->
  initial:int ->
  sample:(unit -> raw) ->
  apply:(granted:int -> delta:int -> Time.t) ->
  unit
(** {!bind} for an application. *)

val degraded : t -> bool
(** Currently deciding with the Static fallback because some app's
    congestion signal is stale (see {!config.degrade_after}). *)

val policy_name : t -> string
(** Name of the policy currently deciding (the fallback while degraded). *)

(** [register_metrics t reg] registers the allocator's counters (under
    [skyloft_alloc_*]), its degradation gauge, and each registered
    application's granted-core gauge and timeseries (labelled with the
    app name).  Call after the applications have registered.  Pull-based;
    never perturbs the control loop. *)
val register_metrics : t -> Skyloft_obs.Registry.t -> unit
