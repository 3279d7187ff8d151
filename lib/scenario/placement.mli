module Time = Skyloft_sim.Time
module Histogram = Skyloft_stats.Histogram
module Alloc_policy = Skyloft_alloc.Policy
module Broker = Skyloft_alloc.Broker
module Plan = Skyloft_fault.Plan

(** Oversubscribed-machine placements: N independent runtime instances
    (any mix of the three flavours) sharing one simulated machine under a
    core {!Broker}.

    Each tenant owns a disjoint physical core range sized by its
    burstable ceiling; the broker's allowance grants decide how much of
    that range it may occupy at any moment, and the broker capacity is
    typically smaller than the sum of ceilings — every tenant could
    burst, not all at once.  Centralized and hybrid tenants get one extra
    dedicated dispatcher core outside the brokered pool (the Caladan
    iokernel arrangement: control planes are not traded).

    Requests are issued open-loop per tenant and armed with a per-task
    deadline plus client-side retry ({!Skyloft_net.Loadgen.retrying}), so
    even a crashed tenant's accounting is lossless: every submitted
    request settles as exactly one of completed or gave-up
    ([{!lost} = 0], the reconciliation invariant the oversub experiment
    asserts).  Everything is a pure function of the seed: same seed ⇒
    byte-identical {!digest_string} at any [-j]. *)

type tenant
(** One runtime instance on the brokered machine: its name, runtime, the
    broker arbitration class [kind] (LC tenants may steal from BE
    tenants above their floors; BE tenants grow from the free pool
    only), its [guaranteed] floor (never reclaimed, except by crash), its
    [burstable] ceiling (also its physical core range), and the request
    shape and arrival process it offers. *)

val tenant :
  ?kind:Alloc_policy.kind ->
  name:string ->
  runtime:Scenario.runtime ->
  guaranteed:int ->
  burstable:int ->
  shape:Shape.t ->
  arrival:Arrival.t ->
  unit ->
  tenant
(** Validating constructor (default [kind] LC).  Raises
    [Invalid_argument] on negative floors, [burstable < max 1 guaranteed],
    or an invalid shape/arrival. *)

type tenant_result = {
  t_name : string;
  t_runtime : string;
  t_kind : string;
  t_guaranteed : int;
  t_burstable : int;
  submitted : int;
  completed : int;
  gave_up : int;  (** retry budget exhausted *)
  deadline_drops : int;  (** task-level kills (a request may retry past one) *)
  final_granted : int;
  final_health : string;
  core_ns : int;  (** integral of granted cores over time *)
  latency : Histogram.t;  (** response time of completed requests, ns *)
  allowance : Skyloft_stats.Timeseries.t;
      (** granted cores over time — the broker's per-tenant series, ready
          to export as a Perfetto counter track *)
}

val lost : tenant_result -> int
(** [submitted - completed - gave_up]; 0 iff accounting reconciles. *)

type result = {
  placement : string;
  capacity : int;
  target : int;  (** requests per tenant *)
  last_completion : Time.t;
  tenants : tenant_result list;  (** registration (list) order *)
  fairness : float;  (** Jain over floor-normalized core-time integrals *)
  grants : int;
  reclaims : int;
  yields : int;
  degradations : int;
  quarantines : int;
  releases : int;
  crashes : int;
  charged_ns : Time.t;
}

val run :
  ?seed:int ->
  ?faults:Plan.t list ->
  ?broker:Broker.config ->
  ?trace:Skyloft_stats.Trace.t ->
  ?registry:Skyloft_obs.Registry.t ->
  name:string ->
  capacity:int ->
  requests:int ->
  tenant list ->
  result
(** Build the machine, one runtime + app per tenant ({!Scenario.build}),
    register everyone with a fresh broker under [broker] (default
    {!Broker.default_config}; initial grant = floor), arm tenant-level
    fault plans ({!Plan.tenant_hoard} / [tenant_stale] / [tenant_crash];
    any machine-level plan raises), then issue each tenant's requests
    through {!Shape.exec} from its {!Scenario.stream} until [requests]
    each, and {!Scenario.drain} until all settled (a wedged placement
    returns [lost > 0]).  Every stage runs under a 5 ms kill deadline,
    which keeps a dead tenant's requests from lingering forever, and
    every request gets 2 tries, the second 100 µs after the first
    fails.  Raises [Invalid_argument] when floors exceed [capacity], on
    duplicate names or an out-of-range fault tenant — before anything
    runs.  Deterministic in [seed] (default 42).

    [trace] is a shared machine-wide flight recorder: every tenant's
    runtime records its spans/instants into it (physical core ids, so
    per-core tracks never interleave across tenants) and the broker
    mirrors its arbitration and health edges onto the base core of each
    tenant's range.  [registry] attaches tenant-labelled runtime metrics
    plus the broker's [skyloft_broker_*] family.  Both are strictly
    passive: attaching them does not change the simulation (obs-report
    asserts digest identity with and without). *)

val digest_string : result -> string
(** Canonical deterministic rendering (the oversub goldens are MD5 over
    this): per-tenant counts, health, core-time and latency summaries,
    then broker totals and fairness. *)
