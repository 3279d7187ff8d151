module Time = Skyloft_sim.Time
module Dist = Skyloft_sim.Dist
module Histogram = Skyloft_stats.Histogram
module Broker = Skyloft_alloc.Broker
module Policy = Skyloft_alloc.Policy
module Plan = Skyloft_fault.Plan
module Scenario = Skyloft_scenario.Scenario
module Shape = Skyloft_scenario.Shape
module Arrival = Skyloft_scenario.Arrival
module Placement = Skyloft_scenario.Placement

(** The oversubscription experiment: N runtime instances brokered on one
    machine, with one tenant misbehaving.

    Every cell is a {!Placement}: n tenants, each guaranteed 1 core and
    allowed to burst to 4, on a brokered pool of 2n cores — the sum of
    ceilings exceeds the machine, so tenants genuinely compete.  Tenant 0
    misbehaves per the fault scenario (claims congestion forever, stops
    reporting, or crashes outright) and the sweep measures what the
    broker's layered defenses buy the {e healthy} tenants: their merged
    p99 under a hoarding neighbour with quarantine armed versus disarmed,
    fairness over floor-normalized core-time, and lossless per-tenant
    request accounting even when the neighbour dies.

    Two structural assertions run on every sweep (not just in tests):
    each tenant reconciles exactly ([lost = 0]), and with quarantine
    armed the healthy-tenant p99 under a hoarder stays within
    {!interference_bound} of the fault-free baseline — the graceful half
    of graceful degradation, falsified if the defense regresses. *)

let faulty_tenant = 0

(* Per-LC-tenant offered load: ~1.3 core-equivalents against an average
   fair share of 2 (pool 2n over n tenants), so there is real headroom
   to trade yet any tenant clamped to its 1-core floor is overloaded —
   misallocation is visible, not masked by slack. *)
let lc_rate = 260_000.0
let lc_shape = Shape.Single (Dist.Exponential { mean = Time.us 5 })

(* BE tenants (mixed fleet only): coarser chunks, ~1 core-equivalent. *)
let be_rate = 50_000.0
let be_shape = Shape.Single (Dist.Exponential { mean = Time.us 20 })

let mixes = [ "percpu"; "mixed" ]

let runtime_of ~mix i =
  match mix with
  | "percpu" -> Scenario.Percpu
  | _ ->
      List.nth
        [
          Scenario.Percpu;
          Scenario.Centralized;
          Scenario.Hybrid;
          Scenario.Worksteal;
        ]
        (i mod 4)

let kind_of ~mix i =
  if String.equal mix "mixed" && i mod 4 = 3 then Policy.Be else Policy.Lc

let tenants ~mix ~n ~capacity =
  List.init n (fun i ->
      let kind = kind_of ~mix i in
      let shape, arrival =
        match kind with
        | Policy.Lc -> (lc_shape, Arrival.Poisson { rate_rps = lc_rate })
        | Policy.Be -> (be_shape, Arrival.Poisson { rate_rps = be_rate })
      in
      Placement.tenant ~kind
        ~name:
          (Printf.sprintf "t%02d-%s" i
             (Scenario.runtime_name (runtime_of ~mix i)))
        ~runtime:(runtime_of ~mix i) ~guaranteed:1
        ~burstable:(min 4 capacity) ~shape ~arrival ())

let scenarios = [ "none"; "hoard"; "hoard-open"; "stale"; "crash" ]

(* Fault windows as fractions of the LC stream's nominal length: the
   stale window closes mid-run so recovery is part of the measurement;
   hoard and crash never end. *)
let faults_of ~scenario ~t_ns =
  let frac f = int_of_float (float_of_int t_ns *. f) in
  match scenario with
  | "none" -> []
  | "hoard" | "hoard-open" ->
      [
        Plan.tenant_hoard
          ~window:(Plan.window ~start:(frac 0.15) ())
          ~tenant:faulty_tenant ();
      ]
  | "stale" ->
      [
        Plan.tenant_stale
          ~window:(Plan.window ~start:(frac 0.15) ~stop:(frac 0.55) ())
          ~tenant:faulty_tenant ();
      ]
  | "crash" ->
      [
        Plan.tenant_crash
          ~window:(Plan.window ~start:(frac 0.3) ())
          ~tenant:faulty_tenant ();
      ]
  | s -> invalid_arg ("Oversub: unknown scenario " ^ s)

(* "hoard-open" is the ablation: identical hoarder, quarantine
   effectively disarmed (a cap no run can reach), so the interference it
   measures is what the defense is worth. *)
let placement_config ~scenario =
  let base = Placement.default_config () in
  if String.equal scenario "hoard-open" then
    {
      base with
      Placement.broker =
        { (Broker.default_config ()) with Broker.hoard_cap = 1_000_000_000 };
    }
  else base

let run_cell ~seed ~mix ~n ~scenario ~requests =
  let capacity = 2 * n in
  let t_ns = int_of_float (float_of_int requests /. lc_rate *. 1e9) in
  let r =
    Placement.run ~seed
      ~faults:(faults_of ~scenario ~t_ns)
      ~config:(placement_config ~scenario)
      ~name:(Printf.sprintf "%s-n%02d-%s" mix n scenario)
      ~capacity ~requests
      (tenants ~mix ~n ~capacity)
  in
  (* Reconciliation, asserted on every cell: each tenant's requests all
     settled as completed or gave-up — even the crashed tenant's. *)
  List.iter
    (fun t ->
      if Placement.lost t <> 0 then
        failwith
          (Printf.sprintf "oversub %s: tenant %s lost %d requests"
             r.Placement.placement t.Placement.t_name (Placement.lost t)))
    r.Placement.tenants;
  if not (r.Placement.fairness > 0.0 && r.Placement.fairness <= 1.0 +. 1e-9)
  then
    failwith
      (Printf.sprintf "oversub %s: fairness %.4f outside (0, 1]"
         r.Placement.placement r.Placement.fairness);
  r

(* Merged latency of everyone except the misbehaving tenant: the
   interference measurement. *)
let healthy_latency (r : Placement.result) =
  let h = Histogram.create () in
  List.iteri
    (fun i t ->
      if i <> faulty_tenant then
        Histogram.merge_into ~src:t.Placement.latency ~dst:h)
    r.Placement.tenants;
  h

let healthy_p99 r = Histogram.percentile (healthy_latency r) 99.0

let faulty_p99 (r : Placement.result) =
  Histogram.percentile
    (List.nth r.Placement.tenants faulty_tenant).Placement.latency 99.0

(* With quarantine armed, a hoarding neighbour may cost the healthy
   tenants at most this factor over the fault-free baseline p99 (against
   a floor so a microsecond-level baseline doesn't make the bound
   vacuous).  The disarmed ablation is asserted at least as bad as the
   armed run — together: the defense bounds interference the ablation
   shows is otherwise unbounded. *)
let interference_bound = 25.0
let baseline_floor = Time.us 50

let check_interference ~mix ~n points =
  let p99 scenario =
    match
      List.find_opt (fun (s, _) -> String.equal s scenario) points
    with
    | Some (_, r) -> healthy_p99 r
    | None -> failwith "oversub: missing scenario point"
  in
  let baseline = max (p99 "none") baseline_floor in
  let armed = p99 "hoard" in
  let open_ = p99 "hoard-open" in
  if float_of_int armed > interference_bound *. float_of_int baseline then
    failwith
      (Printf.sprintf
         "oversub %s n=%d: quarantined hoard p99 %d ns exceeds %.0fx baseline \
          %d ns"
         mix n armed interference_bound baseline);
  if open_ < armed then
    failwith
      (Printf.sprintf
         "oversub %s n=%d: disarmed hoard p99 %d ns below armed %d ns — \
          quarantine is not earning its keep"
         mix n open_ armed)

let print (config : Config.t) =
  (* Requests per tenant by tier: --quick 400 (CI smoke), default 1500,
     --full 5000 — or exactly what --requests says. *)
  let requests = Harness.requests config ~quick:400 ~default:1_500 ~full:5_000 in
  Report.section
    (Printf.sprintf
       "Oversubscribed machine: tenant sweep under the core broker, %d \
        requests per tenant"
       requests);
  Report.note
    "each tenant: 1 guaranteed / 4 burstable cores on a pool of 2n — ceilings \
     oversubscribe the machine";
  Report.note
    "tenant 0 misbehaves per scenario; healthy p99 is everyone else's merged \
     tail";
  (* One cell per (mix, fleet size, scenario): each (mix, n) row comes
     back with its scenario points, and the cross-scenario assertions run
     on it. *)
  let rows =
    List.concat_map
      (fun mix ->
        List.map
          (fun n -> (mix, n))
          (Harness.tier config ~quick:[ 2; 8 ] ~default:[ 2; 8; 64 ]
             ~full:[ 2; 4; 8; 16; 32; 64 ]))
      mixes
  in
  let results =
    Parallel.grid ~jobs:config.jobs rows scenarios (fun (mix, n) scenario ->
        (scenario, run_cell ~seed:config.seed ~mix ~n ~scenario ~requests))
  in
  List.iter (fun ((mix, n), points) -> check_interference ~mix ~n points) results;
  List.iter
    (fun mix ->
      Report.subsection (Printf.sprintf "fleet: %s" mix);
      Report.table
        ~header:
          [
            "tenants";
            "scenario";
            "healthy p99 (us)";
            "faulty p99 (us)";
            "completed";
            "gave up";
            "fairness";
            "degr";
            "quar";
            "crash";
          ]
        (List.concat_map
           (fun ((m, n), points) ->
             if not (String.equal m mix) then []
             else
               List.map
                 (fun (scenario, r) ->
                   let completed, gave_up =
                     List.fold_left
                       (fun (c, g) t ->
                         (c + t.Placement.completed, g + t.Placement.gave_up))
                       (0, 0) r.Placement.tenants
                   in
                   [
                     string_of_int n;
                     scenario;
                     Report.us (healthy_p99 r);
                     Report.us (faulty_p99 r);
                     string_of_int completed;
                     string_of_int gave_up;
                     Printf.sprintf "%.4f" r.Placement.fairness;
                     string_of_int r.Placement.degradations;
                     string_of_int r.Placement.quarantines;
                     string_of_int r.Placement.crashes;
                   ])
                 points)
           results))
    mixes;
  Report.note
    "asserted on every sweep: per-tenant lost = 0; armed-hoard healthy p99 <= \
     %.0fx fault-free baseline; disarmed >= armed"
    interference_bound;
  Report.note
    "same seed => byte-identical digests at any -j (goldens in skyloft_run \
     golden)"

(* Golden cells: small mixed-fleet placements through the identical
   machinery, digested byte-for-byte (fixed seed, independent of the CLI
   config). *)
let golden_seed = 5
let golden_requests = 400

let golden_cell ~scenario =
  Placement.digest_string
    (run_cell ~seed:golden_seed ~mix:"mixed" ~n:4 ~scenario
       ~requests:golden_requests)

let golden_scenarios = [ "none"; "hoard"; "crash" ]
