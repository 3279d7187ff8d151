module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Coro = Skyloft_sim.Coro
module Dist = Skyloft_sim.Dist
module Kmod = Skyloft_kernel.Kmod
module Histogram = Skyloft_stats.Histogram
module Timeseries = Skyloft_stats.Timeseries
module Trace = Skyloft_stats.Trace
module App = Skyloft.App
module Rc = Skyloft.Runtime_core
module Allocator = Skyloft_alloc.Allocator
module Alloc_policy = Skyloft_alloc.Policy
module Nic = Skyloft_net.Nic
module Packet = Skyloft_net.Packet
module Loadgen = Skyloft_net.Loadgen
module Synthetic = Skyloft_apps.Synthetic
module Plan = Skyloft_fault.Plan
module Injector = Skyloft_fault.Injector
module Registry = Skyloft_obs.Registry
module Attribution = Skyloft_obs.Attribution
module Trace_analysis = Skyloft_obs.Trace_analysis
module Broker = Skyloft_alloc.Broker
module Scenario = Skyloft_scenario.Scenario
module Placement = Skyloft_scenario.Placement

(** Observability report: the lib/obs layer exercised end to end on both
    runtimes.

    An open-loop workload (with a slice of requests that page-fault in the
    middle of their service time) runs co-located with a batch application
    while the injector steals cores, so every latency segment — queueing,
    service, preemption overhead, fault stall — is nonzero.  The run is
    performed twice per runtime, once with the metrics registry attached
    and once without; the trace and every per-request statistic must be
    byte-identical (observation must not perturb the simulation).  On top
    of the trace the analysis pass computes per-core utilization and
    checks the structural invariants; the attribution identity
    [queueing + service + overhead + stall = response] must hold exactly
    for every completed request.  Any violation fails the experiment with
    a nonzero exit — this is the CI smoke check for lib/obs. *)

let n_workers = 4
let load_frac = 0.35
let rate_rps = load_frac *. Synthetic.saturation_rps ~cores:n_workers
let drain = Time.ms 20
let trace_capacity = 300_000
let steal_duration = Time.us 25
let steal_period = Time.us 900
let fault_every = 7  (* every 7th request blocks mid-service... *)
let fault_ns = Time.us 15  (* ...for this long *)
let page_fault_period = Time.us 500  (* fault the task on worker core 0 *)
let page_fault_ns = Time.us 20

let runtimes = Scenario.[ Centralized; Percpu; Hybrid; Worksteal ]

(* A faulting request computes half its service, blocks (the page-fault
   monitor path), and is woken by an external event; the runtime charges
   the blocked interval as fault stall, never as service. *)
let split_service service = (service / 2, service - (service / 2))

type point = {
  runtime : string;
  requests : int;
  mismatches : int;
  violations : Trace_analysis.violation list;
  dropped : int;
  busy_delta : int;  (* trace-vs-accounting busy residue; 0 when decidable *)
  util : Trace_analysis.core_report list;
  rows : (string * Attribution.t) list;
  fingerprint : string;
  trace_json : string;
  samples : Registry.sample list;  (* empty when not instrumented *)
  injected : int;
}

(* Everything per-request-visible goes into the fingerprint; the two arms
   (registry attached / not attached) must agree byte for byte. *)
let fingerprint_of ~trace_json ~rows ~queue_series =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf trace_json;
  List.iter
    (fun (name, a) ->
      Buffer.add_string buf
        (Format.asprintf "%a\n" Attribution.pp_row (name, a)))
    rows;
  Buffer.add_string buf
    (Printf.sprintf "qdepth:%d:%d\n"
       (Timeseries.length queue_series)
       (match Timeseries.last queue_series with Some (_, v) -> v | None -> -1));
  Digest.to_hex (Digest.string (Buffer.contents buf))

let run_point (config : Config.t) ~runtime ~instrumented =
  (* App ids leak into trace pids; per-run allocation in Runtime_core
     guarantees both arms assign the same ids without any global reset. *)
  let { Fault_sweep.engine; kmod; rt; lc; be; nic; injector; target; gen_rng } =
    Fault_sweep.rig config ~runtime ~workers:n_workers
      ~alloc:{ (Allocator.default_config ()) with Allocator.policy = Alloc_policy.delay () }
      ~ring_capacity:None
  in
  (* A faulting request blocks mid-service (the page-fault monitor path)
     and is woken by an external event. *)
  let submit ~name ~service ~fault =
    if fault then begin
      let s1, s2 = split_service service in
      let body =
        Coro.Compute
          (s1, fun () -> Coro.Block (fun () -> Coro.Compute (s2, fun () -> Coro.Exit)))
      in
      let task = Rc.spawn rt lc ~service ~name body in
      ignore (Engine.after engine (s1 + fault_ns) (fun () -> Rc.wakeup rt task))
    end
    else
      ignore
        (Rc.spawn rt lc ~service ~name (Coro.Compute (service, fun () -> Coro.Exit)))
  in
  let trace = Trace.create ~capacity:trace_capacity () in
  Rc.set_trace rt trace;
  Injector.arm injector target
    [ Plan.core_steal ~period:steal_period ~duration:steal_duration () ];
  (* The registry is the only difference between the two arms. *)
  let registry = if instrumented then Some (Registry.create ()) else None in
  (match registry with
  | Some reg ->
      Rc.register_metrics rt reg;
      Option.iter (fun a -> Allocator.register_metrics a reg) (Rc.allocator rt);
      Kmod.register_metrics kmod reg;
      Nic.register_metrics nic reg;
      Injector.register_metrics injector reg
  | None -> ());
  let n = ref 0 in
  Nic.on_packet nic ~queue:0 (fun (pkt : Packet.t) ->
      incr n;
      submit ~name:pkt.Packet.kind ~service:pkt.Packet.service
        ~fault:(!n mod fault_every = 0));
  Loadgen.poisson engine ~rng:gen_rng ~rate_rps ~service:Dist.dispersive
    ~duration:config.duration (fun pkt -> Nic.rx nic pkt);
  (* Core 0 is a worker only without a serial dispatcher; the dispatcher
     configurations take no page faults. *)
  if Scenario.dispatcher_cores runtime = 0 then
    Engine.every engine ~period:page_fault_period (fun () ->
        ignore (Rc.fault_current rt ~core:0 ~duration:page_fault_ns);
        true);
  let until = config.duration + drain in
  Engine.run ~until engine;
  let rows =
    [ (lc.App.name, lc.App.attribution);
      (be.App.name, be.App.attribution) ]
  in
  let util = Trace_analysis.utilization trace ~until in
  let violations = Trace_analysis.check trace in
  (* When the ring kept everything, each app's span total must reproduce
     the runtime's own busy accounting exactly (segments still in flight
     at the horizon appear in neither). *)
  let busy_delta =
    if Trace.dropped trace > 0 then 0
    else
      let span_busy_of id =
        List.fold_left
          (fun acc (r : Trace_analysis.core_report) ->
            acc
            + Option.value ~default:0
                (List.assoc_opt id r.Trace_analysis.per_app))
          0 util
      in
      abs (span_busy_of lc.App.id - lc.App.busy_ns)
      + abs (span_busy_of be.App.id - be.App.busy_ns)
  in
  let counters =
    ("queue depth", Rc.queue_depth_series rt)
    ::
    (match Rc.allocator rt with
    | Some a ->
        [
          ( be.App.name ^ " granted cores",
            Allocator.series a ~app:be.App.id );
        ]
    | None -> [])
  in
  let trace_json = Trace_analysis.to_chrome_json ~counters trace in
  {
    runtime = Scenario.runtime_name runtime;
    requests = Attribution.requests lc.App.attribution;
    mismatches =
      Attribution.mismatches lc.App.attribution
      + Attribution.mismatches be.App.attribution;
    violations;
    dropped = Trace.dropped trace;
    busy_delta;
    util;
    rows;
    fingerprint =
      fingerprint_of ~trace_json ~rows ~queue_series:(Rc.queue_depth_series rt);
    trace_json;
    samples =
      (match registry with
      | Some reg -> Registry.snapshot ~until reg
      | None -> []);
    injected = Injector.injected injector;
  }

(* ---- reporting ----------------------------------------------------------- *)

let trace_path name = Printf.sprintf "obs_trace_%s.json" name

let fail fmt = Printf.ksprintf failwith fmt

let check_point p =
  if p.requests = 0 then fail "obs-report[%s]: no requests completed" p.runtime;
  if p.mismatches > 0 then
    fail
      "obs-report[%s]: %d requests whose segments do not sum to their \
       response time"
      p.runtime p.mismatches;
  (match p.violations with
  | [] -> ()
  | v :: _ ->
      fail "obs-report[%s]: %d trace invariant violations (first: %s)"
        p.runtime
        (List.length p.violations)
        (Format.asprintf "%a" Trace_analysis.pp_violation v));
  if p.busy_delta <> 0 then
    fail "obs-report[%s]: trace busy time differs from accounting by %d ns"
      p.runtime p.busy_delta

(* ---- machine-level observability ------------------------------------------ *)

(* The machine layer under the same discipline: a brokered 4-tenant
   {!Placement} fleet (mixed runtimes, one BE tenant) shares one flight
   recorder — every tenant's spans on its physical cores plus the
   broker's arbitration and health instants on each tenant's base core —
   while three tenants misbehave in sequence (hoard → quarantine +
   release, stale → degrade + recover, crash).  The run is performed with
   and without the registry attached and the fingerprints must match;
   the trace must satisfy both the structural invariants ({!check}) and
   the machine-level health-automaton invariants ({!check_machine}), and
   every broker counter must equal its instant count in the trace — the
   trace mirror is lossless.  The per-tenant allowance series become
   Perfetto counter tracks in [obs_trace_machine.json], and the raw ring
   is written as [obs_trace_machine.bin] for [skyloft_run trace-dump]. *)

let machine_tenants = 4
let machine_capacity = 8  (* ceilings sum to 16: oversubscribed *)
let machine_trace_capacity = 500_000

(* Oversub's mixed fleet (one tenant per runtime configuration, the
   fourth a BE tenant), under the [t%d-…] names the obs-machine golden
   pins. *)
let machine_fleet () =
  List.mapi
    (fun i (t : Placement.tenant) ->
      {
        t with
        Placement.name =
          Printf.sprintf "t%d-%s" i (Scenario.runtime_name t.Placement.runtime);
      })
    (Oversub.tenants ~mix:"mixed" ~n:machine_tenants ~capacity:machine_capacity)

(* Aggressive health knobs so every edge fires inside a short run: the
   hoarder trips quarantine fast and serves a short sentence (several
   quarantine/release cycles), the stale tenant degrades within 50 µs of
   freezing and recovers when its window closes. *)
let machine_placement_config () =
  {
    (Placement.default_config ()) with
    Placement.broker =
      {
        (Broker.default_config ()) with
        Broker.degrade_after = 10;
        hoard_cap = 10;
        quarantine_ticks = 100;
      };
  }

(* Tenant 0 hoards from 10% of the run on, tenant 1 goes stale over the
   15–50% window (so recovery is inside the measurement), tenant 2
   crashes at 60%.  Tenant 3 stays healthy — the hoard detector needs a
   starving neighbour to call it hoarding. *)
let machine_faults ~t_ns =
  let frac f = int_of_float (float_of_int t_ns *. f) in
  [
    Plan.tenant_hoard ~window:(Plan.window ~start:(frac 0.1) ()) ~tenant:0 ();
    Plan.tenant_stale
      ~window:(Plan.window ~start:(frac 0.15) ~stop:(frac 0.5) ())
      ~tenant:1 ();
    Plan.tenant_crash ~window:(Plan.window ~start:(frac 0.6) ()) ~tenant:2 ();
  ]

type machine_point = {
  m_result : Placement.result;
  m_fingerprint : string;
  m_trace_json : string;
  m_binary : string;
  m_events : int;
  m_dropped : int;
  m_violations : Trace_analysis.violation list;
  m_machine_violations : Trace_analysis.violation list;
  m_kind_counts : (Trace.instant_kind * int) list;
  m_samples : Registry.sample list;
}

let machine_kind_count p kind =
  match List.assoc_opt kind p.m_kind_counts with Some n -> n | None -> 0

let run_machine_point ~seed ~requests ~instrumented =
  let t_ns = int_of_float (float_of_int requests /. Oversub.lc_rate *. 1e9) in
  let trace = Trace.create ~capacity:machine_trace_capacity () in
  let registry = if instrumented then Some (Registry.create ()) else None in
  let r =
    Placement.run ~seed
      ~faults:(machine_faults ~t_ns)
      ~config:(machine_placement_config ())
      ~trace ?registry ~name:"machine-obs" ~capacity:machine_capacity
      ~requests (machine_fleet ())
  in
  let counters =
    List.map
      (fun (t : Placement.tenant_result) ->
        (t.Placement.t_name ^ " allowance", t.Placement.allowance))
      r.Placement.tenants
  in
  let trace_json = Trace_analysis.to_chrome_json ~counters trace in
  let kind_counts =
    Trace.fold trace
      (fun acc ev ->
        match ev with
        | Trace.Instant { kind; _ } ->
            let n = match List.assoc_opt kind acc with Some n -> n | None -> 0 in
            (kind, n + 1) :: List.remove_assoc kind acc
        | Trace.Span _ -> acc)
      []
  in
  {
    m_result = r;
    m_fingerprint =
      Digest.to_hex (Digest.string (trace_json ^ Placement.digest_string r));
    m_trace_json = trace_json;
    m_binary = Trace.to_binary trace;
    m_events = Trace.events trace;
    m_dropped = Trace.dropped trace;
    m_violations = Trace_analysis.check trace;
    m_machine_violations = Trace_analysis.check_machine trace;
    m_kind_counts = kind_counts;
    m_samples =
      (match registry with
      | Some reg -> Registry.snapshot ~until:r.Placement.last_completion reg
      | None -> []);
  }

let check_machine_point p =
  let r = p.m_result in
  List.iter
    (fun t ->
      if Placement.lost t <> 0 then
        fail "obs-report[machine]: tenant %s lost %d requests"
          t.Placement.t_name (Placement.lost t))
    r.Placement.tenants;
  if p.m_dropped <> 0 then
    fail "obs-report[machine]: ring dropped %d events — size it for the run"
      p.m_dropped;
  (match p.m_violations with
  | [] -> ()
  | v :: _ ->
      fail "obs-report[machine]: %d structural violations (first: %s)"
        (List.length p.m_violations)
        (Format.asprintf "%a" Trace_analysis.pp_violation v));
  (match p.m_machine_violations with
  | [] -> ()
  | v :: _ ->
      fail "obs-report[machine]: %d machine-invariant violations (first: %s)"
        (List.length p.m_machine_violations)
        (Format.asprintf "%a" Trace_analysis.pp_violation v));
  (* Every health edge fired — the scenario exercises the full automaton. *)
  if r.Placement.quarantines < 1 then
    fail "obs-report[machine]: the hoarder was never quarantined";
  if r.Placement.releases < 1 then
    fail "obs-report[machine]: no quarantine was released";
  if r.Placement.degradations < 1 then
    fail "obs-report[machine]: the stale tenant was never degraded";
  if machine_kind_count p Trace.Tenant_recover < 1 then
    fail "obs-report[machine]: the degraded tenant never recovered";
  if r.Placement.crashes <> 1 then
    fail "obs-report[machine]: expected exactly 1 crash, saw %d"
      r.Placement.crashes;
  (* The trace mirror is lossless: every broker counter equals its
     instant count in the ring. *)
  List.iter
    (fun (kind, counter, label) ->
      let in_trace = machine_kind_count p kind in
      if in_trace <> counter then
        fail "obs-report[machine]: broker counted %d %s, trace holds %d"
          counter label in_trace)
    [
      (Trace.Broker_grant, r.Placement.grants, "grants");
      (Trace.Broker_reclaim, r.Placement.reclaims, "reclaims");
      (Trace.Broker_yield, r.Placement.yields, "yields");
      (Trace.Tenant_degrade, r.Placement.degradations, "degradations");
      (Trace.Quarantine, r.Placement.quarantines, "quarantines");
      (Trace.Release, r.Placement.releases, "releases");
      (Trace.Tenant_crash, r.Placement.crashes, "crashes");
    ]

let machine_json_path = "obs_trace_machine.json"
let machine_bin_path = "obs_trace_machine.bin"

let print_machine (config : Config.t) =
  let requests = Harness.requests config ~quick:400 ~default:800 ~full:2_000 in
  Report.subsection
    (Printf.sprintf
       "machine level: %d brokered tenants on %d cores, %d requests each"
       machine_tenants machine_capacity requests);
  let points =
    Parallel.map ~jobs:config.Config.jobs
      (fun instrumented ->
        run_machine_point ~seed:config.Config.seed ~requests ~instrumented)
      [ true; false ]
  in
  let on_, off =
    match points with [ a; b ] -> (a, b) | _ -> assert false
  in
  if on_.m_fingerprint <> off.m_fingerprint then
    fail
      "obs-report[machine]: registry-on run differs from registry-off run (%s \
       vs %s) — observation perturbed the simulation"
      on_.m_fingerprint off.m_fingerprint;
  check_machine_point on_;
  let r = on_.m_result in
  Report.table
    ~header:
      [ "tenant"; "runtime"; "kind"; "completed"; "gave up"; "granted";
        "health"; "core-time (us)" ]
    (List.map
       (fun (t : Placement.tenant_result) ->
         [
           t.Placement.t_name;
           t.Placement.t_runtime;
           t.Placement.t_kind;
           string_of_int t.Placement.completed;
           string_of_int t.Placement.gave_up;
           string_of_int t.Placement.final_granted;
           t.Placement.final_health;
           Report.f1 (Time.to_us_float t.Placement.core_ns);
         ])
       r.Placement.tenants);
  Printf.printf
    "broker: %d grants, %d reclaims, %d yields, %d degradations, %d \
     quarantines, %d releases, %d crashes — all mirrored 1:1 as trace \
     instants\n"
    r.Placement.grants r.Placement.reclaims r.Placement.yields
    r.Placement.degradations r.Placement.quarantines r.Placement.releases
    r.Placement.crashes;
  Printf.printf
    "trace: %d events retained, %d dropped; structural and machine \
     invariants hold\n"
    on_.m_events on_.m_dropped;
  Printf.printf "registry: %d samples\n" (List.length on_.m_samples);
  Out_channel.with_open_text machine_json_path (fun oc ->
      output_string oc on_.m_trace_json);
  Printf.printf "wrote %s (per-tenant allowance counter tracks)\n"
    machine_json_path;
  Out_channel.with_open_bin machine_bin_path (fun oc ->
      output_string oc on_.m_binary);
  Printf.printf "wrote %s (decode with: skyloft_run trace-dump %s)\n"
    machine_bin_path machine_bin_path;
  Report.note
    "machine arms were byte-identical with and without the registry attached"

let print config =
  Report.section
    (Printf.sprintf
       "Observability report: attribution + trace analysis, %d cores at \
        %.0f%% load"
       n_workers (load_frac *. 100.));
  (* One cell per (runtime, arm), fanned across domains; the on/off
     comparison happens after the merge. *)
  let results =
    List.map
      (function
        | _, [ on_; off ] ->
            if on_.fingerprint <> off.fingerprint then
              fail
                "obs-report[%s]: registry-on run differs from registry-off run \
                 (%s vs %s) — observation perturbed the simulation"
                on_.runtime on_.fingerprint off.fingerprint;
            check_point on_;
            on_
        | _ -> assert false)
      (Parallel.grid ~jobs:config.Config.jobs runtimes [ true; false ]
         (fun runtime instrumented -> run_point config ~runtime ~instrumented))
  in
  List.iter
    (fun p ->
      Report.subsection (Printf.sprintf "%s runtime" p.runtime);
      Report.table
        ~header:[ "core"; "busy%"; "busy (us)"; "idle (us)"; "spans"; "instants" ]
        (List.map
           (fun (r : Trace_analysis.core_report) ->
             [
               string_of_int r.Trace_analysis.core;
               Report.pct (Trace_analysis.busy_share r);
               Report.f1 (Time.to_us_float r.Trace_analysis.busy_ns);
               Report.f1 (Time.to_us_float r.Trace_analysis.idle_ns);
               string_of_int r.Trace_analysis.spans;
               string_of_int r.Trace_analysis.instants;
             ])
           p.util);
      Report.table
        ~header:
          [ "app"; "requests"; "queue (ns)"; "service (ns)"; "overhead (ns)";
            "stall (ns)"; "response (ns)" ]
        (List.map
           (fun (name, a) ->
             let mean h = Printf.sprintf "%.0f" (Histogram.mean h) in
             [
               name;
               string_of_int (Attribution.requests a);
               mean (Attribution.queueing a);
               mean (Attribution.service a);
               mean (Attribution.overhead a);
               mean (Attribution.stall a);
               mean (Attribution.response a);
             ])
           p.rows);
      Printf.printf
        "identity: queueing + service + overhead + stall = response held for \
         %d/%d requests; %d injected faults; %d trace events dropped\n"
        p.requests p.requests p.injected p.dropped;
      Printf.printf "registry: %d samples; Prometheus excerpt:\n"
        (List.length p.samples);
      let prom = Registry.to_prometheus p.samples in
      String.split_on_char '\n' prom
      |> List.filteri (fun i _ -> i < 8)
      |> List.iter (fun l -> if l <> "" then Printf.printf "  %s\n" l);
      let path = trace_path p.runtime in
      Out_channel.with_open_text path (fun oc -> output_string oc p.trace_json);
      Printf.printf "wrote %s (Perfetto: spans + queue-depth counter track)\n"
        path)
    results;
  Report.note
    "registry-on and registry-off runs were byte-identical per runtime";
  print_machine config
