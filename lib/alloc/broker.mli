module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Timeseries = Skyloft_stats.Timeseries

(** The machine-level core broker: the {!Allocator} arbiter one level up.

    Where the allocator arbitrates cores between the applications of one
    runtime, the broker arbitrates whole runtimes — tenants — sharing one
    simulated machine (the iokernel role in Caladan/Shenango).  Each
    tenant registers a whole-runtime congestion sample, an apply hook
    (typically the runtime's [set_core_allowance]) and guaranteed /
    burstable bounds; every {!Allocator.interval} the arbiter samples,
    lets a fresh per-tenant {!Policy} instance ask for or yield cores,
    and arbitrates under the conservation invariants it checks on every
    tick.

    Tenants are untrusted, so the broker layers defenses on the arbiter:
    per-tenant signal staleness ({!Allocator.Degrade}/{!Allocator.Recover},
    the allocator's fallback lifted to tenant granularity), hoard scores
    with decay that quarantine a tenant claiming congestion forever
    ({!Allocator.Quarantine}/{!Allocator.Release} — clamped to its floor,
    never reclaimed past it), and broker-driven reclamation of everything
    — floor included — when a tenant {!crash}es.  Events, health states
    and bounds are the {!Allocator}'s types. *)

type config = {
  degrade_after : int;
      (** consecutive frozen ticks before a tenant is degraded *)
  hoard_cap : int;  (** hoard score that trips quarantine *)
  quarantine_ticks : int;  (** intervals a quarantined tenant sits out *)
}

val default_config : unit -> config
(** Degrade after 20 ticks, hoard cap 40, quarantine 400 ticks (2 ms).  A
    well-behaved tick decays the hoard score by 2. *)

type t

val create : engine:Engine.t -> capacity:int -> ?config:config -> unit -> t
(** A broker over a machine with [capacity] brokered cores.  Raises
    [Invalid_argument] on a non-positive capacity or malformed config. *)

val register :
  t ->
  tenant:int ->
  name:string ->
  kind:Policy.kind ->
  policy:Policy.t ->
  bounds:Allocator.bounds ->
  initial:int ->
  sample:(unit -> Allocator.raw) ->
  apply:(granted:int -> delta:int -> Time.t) ->
  unit
(** Register a tenant.  [policy] must be a fresh instance (policies carry
    hysteresis state); [sample] is read once per tick; [apply] drives the
    runtime's core allowance and returns the switch cost to charge.
    Registration order is the arbitration order.  Raises
    [Invalid_argument] on duplicate ids, malformed bounds, or initial
    grants exceeding the pool. *)

val intercept_sample :
  t -> tenant:int -> (granted:int -> Allocator.raw -> Allocator.raw) -> unit
(** Install a fault-injection interceptor rewriting the tenant's raw
    congestion sample in flight (see [Injector.arm_tenants]). *)

val set_trace :
  t -> ?core_of_tenant:(int -> int) -> Skyloft_stats.Trace.t -> unit
(** Mirror every broker event onto the flight recorder as a machine-level
    instant ([Broker_grant]/[Broker_reclaim]/[Broker_yield] for core
    movements, [Tenant_degrade]/[Tenant_recover], [Quarantine]/[Release]
    and [Tenant_crash] for health edges), named after the tenant.
    [core_of_tenant] maps a tenant id to the core the instant lands on —
    typically the base of the tenant's physical core range (see
    [Placement]) so arbitration shows up on the right track; defaults to
    the identity. *)

val tick : t -> unit
(** One control round: sample (through interceptors), staleness edges and
    quarantine countdown, healthy-tenant policy decisions, hoard scoring,
    then the arbiter's three-phase arbitration (yields, LC grants with
    steals from healthy BE tenants above floors, BE grants) and
    the arbiter's invariant check, which raises
    {!Allocator.Invariant_violation} if the sum of grants exceeds the
    capacity or a tenant leaves its bounds (crashed tenants may sit below
    their floor). *)

val start : t -> unit
(** Tick every {!Allocator.interval} until {!stop}. *)

val stop : t -> unit

val crash : t -> tenant:int -> unit
(** Broker-driven crash reclamation: take back everything the tenant
    held — the guaranteed floor included, which only a crash may — and
    exclude it from arbitration and fairness from now on.  Idempotent. *)

val fairness : t -> float
(** Jain's index over per-tenant core-time integrals, each normalized by
    its guaranteed floor; 1.0 is perfectly fair, 1/n maximally unfair.
    Crashed tenants are excluded. *)

(** {1 Accessors} *)

val granted : t -> tenant:int -> int
val health : t -> tenant:int -> Allocator.health
val hoard_score : t -> tenant:int -> int
val core_ns : t -> tenant:int -> int
(** Integral of granted cores over time, settled to now. *)

val series : t -> tenant:int -> Timeseries.t
val free_cores : t -> int
val grants : t -> int
val reclaims : t -> int
val yields : t -> int
val charged_ns : t -> Time.t
val degradations : t -> int
val quarantines : t -> int
val releases : t -> int
val crashes : t -> int

val events : t -> Allocator.event list
(** The bounded event log (most recent 4096), oldest first. *)

val health_name : Allocator.health -> string

val register_metrics : t -> Skyloft_obs.Registry.t -> unit
(** Pull-based [skyloft_broker_*] metrics: machine-wide counters (grants,
    reclaims, yields, ticks, charged switch cost, degradations,
    quarantines, releases, crashes), pool gauges (free cores, capacity,
    Jain fairness), and per-tenant gauges/series under an [app] label
    (granted cores, health code, hoard score, core-time integral, granted
    series).  Attaching a registry cannot perturb the control loop. *)
