module Time = Skyloft_sim.Time
module Histogram = Skyloft_stats.Histogram

(** The scenario DSL: declarative workloads compiled onto the runtimes.

    A scenario composes three orthogonal pieces:

    - {e arrival processes} ({!Arrival}): when requests arrive — Poisson,
      MMPP on/off bursts, diurnal piecewise-rate curves;
    - {e service shapes} ({!Shape}): what one request costs — a single
      stage, a sequential chain, a parallel fan-out with join, or a
      weighted mix of those;
    - {e a tenant mix}: N co-located applications (hundreds scale fine)
      tagged LC or BE, the BE tenant carrying a guaranteed core floor
      that feeds the {!Skyloft_alloc} allocator.

    {!run} compiles any scenario onto any of the four {!runtime}s through
    {!Skyloft_net.Loadgen.stream} and returns only mergeable streaming
    digests — per-tenant log-linear histograms and counters, never
    per-request records — so a cell can run 10⁷+ requests in bounded
    live heap.  Everything is a pure function of the seed: same seed ⇒
    byte-identical {!digest_string}, at any [-j]. *)

type lc_spec = private {
  lc_name : string;
  shape : Shape.t;
  arrival : Arrival.t;
  program : Shape.program;
      (** [shape]'s stage program ({!Shape.compile}), compiled once when
          the tenant is declared ({!lc}) and shared by every cell *)
}

type be_spec
(** The best-effort tenant's name and the cores the allocator never
    reclaims from it ({!be}). *)

type tenant = Lc of lc_spec | Be of be_spec

type t = {
  name : string;
  cores : int;  (** worker cores (the centralized flavours add a dispatcher) *)
  tenants : tenant list;
}

val lc : name:string -> shape:Shape.t -> arrival:Arrival.t -> tenant
(** A latency-critical tenant: an open-loop request stream. *)

val be : ?guaranteed:int -> name:string -> unit -> tenant
(** The best-effort tenant: endless 50 µs batch chunks, one worker per
    core, co-scheduled under the core allocator with [guaranteed] cores
    (default 0) it never loses and every core as its ceiling. *)

val make : name:string -> cores:int -> tenant list -> t
(** Assemble a scenario. *)

val mean_rate_rps : t -> float
(** Aggregate long-run LC arrival rate. *)

val offered_load : t -> float
(** Long-run LC compute demand over worker capacity (1.0 = saturated,
    before scheduling overheads). *)

(** {1 Compilation} *)

type runtime = Percpu | Centralized | Hybrid | Worksteal
(** Four configurations of two mechanisms: [Centralized] is {!Skyloft.Hybrid}
    pinned to its serial dispatcher, and [Worksteal] is {!Skyloft.Percpu}
    under {!Skyloft_policies.Work_stealing.steal_half} with Shenango-style
    parking, where [Percpu] runs the steal-one policy without parking. *)

val runtime_name : runtime -> string
val runtimes : runtime list

val dispatcher_cores : runtime -> int
(** Cores a configuration takes beyond its workers: 1 for the serial
    dispatcher of [Centralized] and [Hybrid], 0 otherwise. *)

val build :
  ?watchdog:Time.t ->
  Skyloft_hw.Machine.t ->
  Skyloft_kernel.Kmod.t ->
  first_core:int ->
  cores:int ->
  runtime ->
  Skyloft.Runtime_core.t
(** The one configuration constructor: build [runtime] with its policy —
    the work-stealing policy ([Percpu]), steal-half with parking
    ([Worksteal], steal counters added to the handle's metrics), or
    the global FIFO queue (Skyloft-Shinjuku-Shenango) on the hybrid,
    adaptive ([Hybrid]) or pinned to its dispatcher ([Centralized]) — on [cores] workers numbered from
    [first_core] (after the dispatcher, which takes [first_core] itself),
    with Table 5's 100 kHz user timer and 30 µs quantum.  [watchdog] arms
    the runtime's recovery watchdog. *)

type tenant_digest = {
  tenant : string;
  submitted : int;
  completed : int;
  latency : Histogram.t;  (** response time, ns; mergeable snapshot *)
}

type digest = {
  scenario : string;
  runtime : string;
  target : int;  (** requested request count *)
  submitted : int;  (** actual; may overshoot by at most one in-flight
                        arrival per LC tenant *)
  completed : int;
  last_completion : Time.t;
  tenants : tenant_digest list;  (** LC tenants, scenario order *)
  be_preemptions : int;
  alloc_grants : int;
  alloc_reclaims : int;
  events_fired : int;
      (** engine callbacks the cell ran ({!Skyloft_sim.Engine.events_fired}):
          simulator work, not a simulated result, so {!digest_string}
          leaves it out *)
}

type cell
(** One compiled cell between its setup and its drain. *)

val prepare : ?seed:int -> requests:int -> runtime:runtime -> t -> cell
(** Validate the scenario, raising [Invalid_argument] before anything is
    built on: no LC tenant; more than one BE tenant (the runtimes attach
    a single BE application to the allocator); duplicate tenant names; a
    guaranteed floor outside [0, cores]; [requests < 1]; or any invalid
    shape or arrival process (recursively).  Then compile one cell:
    {!build} [runtime], create one app per tenant and split the RNG
    streams in scenario order, attach the BE tenant to the allocator with
    its floor, and arm each LC tenant's {!stream}, which issues requests
    until [requests] arrivals in total.  A request runs its tenant's
    stage program ([program], {!Shape.start}): each stage is a
    {!Skyloft.Runtime_core.submit} whose completion goes to the tenant's
    one hook, which draws and submits the next chain stage or counts the
    join down ({!Shape.step}).  The program keeps {!Shape.exec}'s draw
    order, so the stages and the seed contract are {!Shape.exec}'s; a
    stage allocates nothing but its task.  Nothing
    runs: the engine fires no event until someone runs it.  This is the
    one place the setup order lives, so it fixes the draw order of the
    seed contract (default seed 42). *)

val finish : cell -> digest
(** {!drain} the cell until every submitted request completed (a wedged
    cell returns [completed < submitted]) and digest it.  Live heap is
    O(tenants + in-flight), independent of [requests].  Call it once. *)

val cell_runtime : cell -> Skyloft.Runtime_core.t
(** The cell's runtime, to observe it between {!prepare} and {!finish}. *)

val cell_engine : cell -> Skyloft_sim.Engine.t
(** The cell's engine, to run it in slices before {!finish}. *)

val run : ?seed:int -> requests:int -> runtime:runtime -> t -> digest
(** [run = finish (prepare ...)]: one cell, built, run and digested.
    Deterministic in [seed]: same seed, byte-identical
    {!digest_string}. *)

(** {1 Arrival streams and the drain}

    Shared by {!run} and {!Placement.run}; each brings its own issue (a
    stage program, or {!Shape.exec} under its own [spawn]) and
    predicates. *)

val stream :
  Skyloft_sim.Engine.t -> Arrival.t -> Skyloft_sim.Rng.t ->
  stop:(unit -> bool) -> (Time.t -> unit) -> unit
(** [stream engine arrival rng ~stop issue]: [issue at] at every arrival
    (draws from [rng]) until [stop ()] holds at the next scheduling. *)

val drain :
  Skyloft_sim.Engine.t -> expected_s:float -> settled:(unit -> bool) -> unit
(** Run in chunks of [max 10 ms (expected / 16)] until [settled ()] (the
    periodic timers never let the queue empty) or past [8 * expected +
    1 s] ([expected_s]: nominal stream length), so a wedged run returns
    unsettled rather than hanging. *)

(** {1 Digests} *)

val merged_latency : digest -> Histogram.t
(** All LC tenants' latency histograms merged into one (fresh). *)

val hist_line : Histogram.t -> string
(** The latency summary line of every digest string. *)

val digest_string : digest -> string
(** Canonical deterministic rendering of everything request-visible in
    the digest: counts, per-tenant and merged histogram summaries,
    allocator totals.  The scale experiment's goldens are MD5 over
    this. *)
