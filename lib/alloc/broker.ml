module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Timeseries = Skyloft_stats.Timeseries
module A = Allocator

(* The machine-level core broker: the arbiter of {!Allocator} one level
   up.  Where the allocator arbitrates cores between the applications of
   ONE runtime, the broker arbitrates whole runtimes — tenants — sharing
   one machine (the iokernel role in Caladan/Shenango, and the coordinator
   of "Rethinking Thread Scheduling under Oversubscription").  Sampling,
   the three-phase arbitration, the conservation invariants, the event
   log and the counters are the arbiter's; this module holds only the
   rules that differ at the machine level: a policy per tenant, and
   layered defenses against untrusted tenants —
   - per-tenant signal STALENESS (busy frozen while claiming queued work):
     after [degrade_after] ticks the tenant is degraded — clamped to its
     floor, decisions ignored — and recovers the moment the signal moves;
   - HOARD detection: a tenant above its floor that keeps claiming
     congestion while the pool is empty and other tenants starve
     accumulates a hoard score (decaying while it behaves); at
     [hoard_cap] it is QUARANTINED — clamped to its floor for
     [quarantine_ticks] intervals, then released on good behavior;
   - tenant CRASH: [crash] reclaims everything including the floor, and
     the tenant is excluded from arbitration and fairness from then on. *)

type config = { degrade_after : int; hoard_cap : int; quarantine_ticks : int }

let default_config () = { degrade_after = 20; hoard_cap = 40; quarantine_ticks = 400 }

(* Hoard score shed per well-behaved tick. *)
let hoard_decay = 2

type tenant_state = {
  policy : Policy.t;
  mutable intercept : (granted:int -> A.raw -> A.raw) option;
      (* fault-injection seam: rewrites the raw sample in flight *)
  mutable hoard_score : int;
  mutable quarantine_left : int;
  mutable core_ns : int;  (* integral of granted cores over time *)
  mutable core_ns_at : Time.t;
}

type tenant = tenant_state A.binding

type rules = {
  cfg : config;
  mutable trace : Skyloft_stats.Trace.t option;
  mutable core_of_tenant : int -> int;
}

type t = (rules, tenant_state) A.arbiter

(* ---- events --------------------------------------------------------------- *)

(* Broker actions on the shared machine timeline: arbitration instants
   land on a representative core of the tenant's physical range (the
   [core_of_tenant] mapping), named after the tenant, so a single
   Perfetto view attributes cross-tenant interference. *)
let trace_kind_of_action = function
  | A.Grant -> Skyloft_stats.Trace.Broker_grant
  | A.Reclaim -> Skyloft_stats.Trace.Broker_reclaim
  | A.Yield -> Skyloft_stats.Trace.Broker_yield
  | A.Degrade -> Skyloft_stats.Trace.Tenant_degrade
  | A.Recover -> Skyloft_stats.Trace.Tenant_recover
  | A.Quarantine -> Skyloft_stats.Trace.Quarantine
  | A.Release -> Skyloft_stats.Trace.Release
  | A.Crash -> Skyloft_stats.Trace.Tenant_crash

let mirror rules (ev : A.event) =
  match rules.trace with
  | Some trace ->
      Skyloft_stats.Trace.instant trace
        ~core:(rules.core_of_tenant ev.id)
        ~at:ev.at
        (trace_kind_of_action ev.action)
        ~name:ev.name
  | None -> ()

let set_trace (t : t) ?core_of_tenant trace =
  let r = A.rules t in
  r.trace <- Some trace;
  match core_of_tenant with Some f -> r.core_of_tenant <- f | None -> ()

(* Clamp a misbehaving tenant to its guaranteed floor, refilling the pool
   with everything above it, and log the health edge.  The floor itself is never reclaimed — that is the graceful half
   of the degradation. *)
let clamp_to_floor t (b : tenant) ~action =
  let held = A.grant b in
  A.transition t b ~action:A.Reclaim ~delta:((A.bounds b).guaranteed - held);
  A.emit t b ~action

(* Fold the elapsed holding interval into the per-tenant core-time
   integral (the fairness currency). *)
let settle_core_ns t (b : tenant) =
  let at = A.now t and s = A.ext b in
  s.core_ns <- s.core_ns + (A.grant b * max 0 (at - s.core_ns_at));
  s.core_ns_at <- at

(* ---- the broker's rules ----------------------------------------------------- *)

let wants_more = function Policy.Grant n -> n > 0 | Policy.Yield _ | Policy.Hold -> false

(* Another healthy tenant than [i] asks for more cores this round. *)
let rec other_wants bs ds i j =
  j < Array.length bs
  && ((j <> i && A.health bs.(j) = A.Healthy && wants_more ds.(j))
     || other_wants bs ds i (j + 1))

let decide (t : t) =
  let cfg = (A.rules t).cfg in
  let bs = A.bindings t and ds = A.decisions t in
  let n = Array.length bs in
  (* 1. sample every live tenant (through the fault interceptor, if any)
     and settle the fairness integrals *)
  for i = 0 to n - 1 do
    let b = bs.(i) in
    settle_core_ns t b;
    if A.health b <> A.Crashed then begin
      let r = A.sample b in
      let r =
        match (A.ext b).intercept with Some f -> f ~granted:(A.grant b) r | None -> r
      in
      ignore (A.signal_of t i r)
    end
  done;
  (* 2. health transitions: staleness edges and quarantine countdown *)
  for i = 0 to n - 1 do
    let b = bs.(i) and s = A.ext bs.(i) in
    match A.health b with
    | A.Healthy when A.stale_ticks b >= cfg.degrade_after ->
        A.set_health b A.Stale;
        clamp_to_floor t b ~action:A.Degrade
    | A.Stale when A.stale_ticks b = 0 ->
        A.set_health b A.Healthy;
        A.emit t b ~action:A.Recover
    | A.Quarantined ->
        s.quarantine_left <- s.quarantine_left - 1;
        if s.quarantine_left <= 0 then begin
          A.set_health b A.Healthy;
          s.hoard_score <- 0;
          A.emit t b ~action:A.Release
        end
    | A.Healthy | A.Stale | A.Crashed -> ()
  done;
  (* 3. policy decisions — only healthy tenants get a say (a healthy one
     was sampled in step 1: only a crashed one was not) *)
  let signals = A.signals t in
  for i = 0 to n - 1 do
    let b = bs.(i) in
    ds.(i) <-
      (if A.health b = A.Healthy then
         Policy.observe (A.ext b).policy ~app:(A.id b) signals.(i)
       else Policy.Hold)
  done;
  (* 4. hoard scoring: a tenant above its floor that keeps claiming
     congestion while the pool is dry and another healthy tenant is asking
     too is hoarding; behaving tenants decay their score.  A tenant
     quarantined here is no longer healthy, so its Hold cannot change a
     later tenant's answer. *)
  for i = 0 to n - 1 do
    let b = bs.(i) and s = A.ext bs.(i) in
    if A.health b = A.Healthy then begin
      let hoarding =
        wants_more ds.(i)
        && A.grant b > (A.bounds b).guaranteed
        && A.free_cores t = 0
        && other_wants bs ds i 0
      in
      if hoarding then s.hoard_score <- s.hoard_score + 1
      else s.hoard_score <- max 0 (s.hoard_score - hoard_decay);
      if s.hoard_score >= cfg.hoard_cap then begin
        A.set_health b A.Quarantined;
        s.quarantine_left <- cfg.quarantine_ticks;
        clamp_to_floor t b ~action:A.Quarantine;
        ds.(i) <- Policy.Hold
      end
    end
  done

let create ~engine ~capacity ?(config = default_config ()) () : t =
  if config.degrade_after <= 0 then
    invalid_arg "Broker.create: degrade_after must be positive";
  if config.hoard_cap <= 0 then
    invalid_arg "Broker.create: hoard_cap must be positive";
  if config.quarantine_ticks <= 0 then
    invalid_arg "Broker.create: quarantine_ticks must be positive";
  let rules = { cfg = config; trace = None; core_of_tenant = Fun.id } in
  A.arbiter ~who:"Broker" ~member:"tenant" ~engine ~capacity
    ~on_event:(mirror rules) ~rules ~decide

let register (t : t) ~tenant ~name ~kind ~policy ~bounds ~initial ~sample ~apply
    =
  A.bind t ~id:tenant ~name ~kind ~bounds ~initial ~sample ~apply
    {
      policy;
      intercept = None;
      hoard_score = 0;
      quarantine_left = 0;
      core_ns = 0;
      core_ns_at = A.now t;
    };
  (* A tenant's grant series is part of every placement report: watched
     from registration on. *)
  ignore (A.series t ~app:tenant)

let intercept_sample t ~tenant f = (A.ext (A.find t tenant)).intercept <- Some f

(* ---- tenant crash ----------------------------------------------------------- *)

(* The tenant's runtime died: reclaim everything it held — the guaranteed
   floor included, which only a crash may take — and drop it from
   arbitration and fairness for good. *)
let crash t ~tenant =
  let b = A.find t tenant in
  if A.health b <> A.Crashed then begin
    settle_core_ns t b;
    A.set_health b A.Crashed;
    if A.grant b > 0 then A.transition t b ~action:A.Crash ~delta:(-A.grant b)
    else A.emit t b ~action:A.Crash
  end

(* ---- fairness --------------------------------------------------------------- *)

(* Jain's fairness index over per-tenant core-time, each normalized by its
   guaranteed floor so heterogeneous tenants compare meaningfully:
   J = (sum x)^2 / (n * sum x^2), 1.0 = perfectly fair.  Crashed tenants
   are excluded (their zero share is not unfairness). *)
let fairness t =
  let xs =
    List.filter_map
      (fun (b : tenant) ->
        if A.health b = A.Crashed then None
        else begin
          settle_core_ns t b;
          Some
            (float_of_int (A.ext b).core_ns
            /. float_of_int (max 1 (A.bounds b).guaranteed))
        end)
      (Array.to_list (A.bindings t))
  in
  let n = List.length xs in
  if n = 0 then 1.0
  else
    let s = List.fold_left ( +. ) 0.0 xs in
    let s2 = List.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
    if s2 = 0.0 then 1.0 else s *. s /. (float_of_int n *. s2)

(* ---- accessors -------------------------------------------------------------- *)

let tick = A.tick
let start = A.start
let stop = A.stop
let granted t ~tenant = A.granted t ~app:tenant
let series t ~tenant = A.series t ~app:tenant
let health t ~tenant = A.health (A.find t tenant)
let hoard_score t ~tenant = (A.ext (A.find t tenant)).hoard_score

let core_ns t ~tenant =
  let b = A.find t tenant in
  settle_core_ns t b;
  (A.ext b).core_ns

let free_cores = A.free_cores
let grants = A.grants
let reclaims = A.reclaims
let yields = A.yields
let charged_ns = A.charged_ns
let degradations = A.degradations
let quarantines = A.quarantines
let releases = A.releases
let crashes = A.crashes
let events = A.events

let health_name = function
  | A.Healthy -> "healthy"
  | A.Stale -> "stale"
  | A.Quarantined -> "quarantined"
  | A.Crashed -> "crashed"

(* Pull-based registration: closures read broker state only at snapshot
   time, so attaching a registry cannot perturb the control loop. *)
let register_metrics t reg =
  let module Registry = Skyloft_obs.Registry in
  A.register_counters t ~prefix:"skyloft_broker" reg;
  let c name help read = Registry.counter reg ~help name read in
  c "skyloft_broker_quarantines_total" "Tenants quarantined for hoarding"
    (fun () -> A.quarantines t);
  c "skyloft_broker_releases_total" "Tenants released from quarantine"
    (fun () -> A.releases t);
  c "skyloft_broker_crashes_total" "Tenant crashes reclaimed" (fun () ->
      A.crashes t);
  Registry.gauge reg "skyloft_broker_capacity"
    ~help:"Brokered cores in the machine pool" (fun () ->
      float_of_int (A.capacity t));
  Registry.gauge reg "skyloft_broker_fairness"
    ~help:"Jain index over normalized per-tenant core-time" (fun () ->
      fairness t);
  Array.iter
    (fun (b : tenant) ->
      let al = [ Registry.app (A.name b) ] in
      Registry.gauge reg ~labels:al "skyloft_broker_granted_cores"
        ~help:"Cores currently granted" (fun () -> float_of_int (A.grant b));
      Registry.gauge reg ~labels:al "skyloft_broker_health"
        ~help:"0 healthy, 1 stale, 2 quarantined, 3 crashed" (fun () ->
          match A.health b with
          | A.Healthy -> 0.0
          | A.Stale -> 1.0
          | A.Quarantined -> 2.0
          | A.Crashed -> 3.0);
      Registry.gauge reg ~labels:al "skyloft_broker_hoard_score"
        ~help:"Current hoard score (quarantine at hoard_cap)" (fun () ->
          float_of_int (A.ext b).hoard_score);
      Registry.counter reg ~labels:al
        ~help:"Integral of granted cores over time"
        "skyloft_broker_tenant_core_ns_total" (fun () ->
          settle_core_ns t b;
          (A.ext b).core_ns);
      Registry.series reg ~labels:al "skyloft_broker_granted_series"
        ~help:"Granted core count over time" (A.series t ~app:(A.id b)))
    (A.bindings t)
