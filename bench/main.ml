(* The full benchmark harness: regenerates every table and figure of the
   paper's evaluation (§5).

   Layout:
   - Bechamel microbenchmarks measure this repository's real code: the
     effects-based uthread operations (Table 7's Skyloft column) and the
     simulator's hot primitives.
   - Each figure/table section then runs the corresponding simulation
     experiment and prints measured-vs-paper tables (EXPERIMENTS.md records
     the comparison).

   SKYLOFT_BENCH=quick|default|full selects the per-point simulated
   duration (default: default). *)

open Bechamel
open Toolkit
module E = Skyloft_experiments
module U = Skyloft_uthread.Uthread

(* ---- Bechamel plumbing ------------------------------------------------- *)

let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |]
let instances = Instance.[ monotonic_clock ]

let run_bench tests =
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  match Analyze.merge ols instances results with
  | results -> results

let estimate results name =
  match Hashtbl.find_opt results (Measure.label Instance.monotonic_clock) with
  | None -> nan
  | Some tbl -> (
      match Hashtbl.find_opt tbl name with
      | None -> nan
      | Some ols_result -> (
          match Analyze.OLS.estimates ols_result with
          | Some (t :: _) -> t
          | Some [] | None -> nan))

(* ---- Table 7: real uthread operation costs ----------------------------- *)

(* Each staged function performs [ops_per_run] operations plus one
   Uthread.run setup; the per-operation cost is the slope divided by the
   batch size (the run overhead is amortised). *)
let ops_per_run = 1000

let bench_yield () =
  U.run (fun () ->
      let t =
        U.spawn (fun () ->
            for _ = 1 to ops_per_run do
              U.yield ()
            done)
      in
      U.join t)

let bench_spawn () =
  U.run (fun () ->
      for _ = 1 to ops_per_run do
        ignore (U.spawn (fun () -> ()))
      done)

let bench_mutex () =
  let m = U.Mutex.create () in
  U.run (fun () ->
      for _ = 1 to ops_per_run do
        U.Mutex.lock m;
        U.Mutex.unlock m
      done)

let bench_condvar () =
  let m = U.Mutex.create () and cv = U.Condvar.create () in
  U.run (fun () ->
      let waiter =
        U.spawn (fun () ->
            U.Mutex.lock m;
            for _ = 1 to ops_per_run do
              U.Condvar.wait cv m
            done;
            U.Mutex.unlock m)
      in
      for _ = 1 to ops_per_run do
        U.yield ();
        U.Condvar.signal cv
      done;
      U.join waiter)

let table7_tests =
  Test.make_grouped ~name:"table7"
    [
      Test.make ~name:"yield" (Staged.stage bench_yield);
      Test.make ~name:"spawn" (Staged.stage bench_spawn);
      Test.make ~name:"mutex" (Staged.stage bench_mutex);
      Test.make ~name:"condvar" (Staged.stage bench_condvar);
    ]

let print_table7_measured () =
  E.Report.section
    "Table 7 (measured): real effects-based uthread operations (Bechamel)";
  let results = run_bench table7_tests in
  let per_op name = estimate results (Printf.sprintf "table7/%s" name) /. float_of_int ops_per_run in
  let paper = [ ("yield", 37); ("spawn", 191); ("mutex", 27); ("condvar", 86) ] in
  E.Report.table
    ~header:[ "operation"; "measured ns/op (this host)"; "paper Skyloft ns" ]
    (List.map
       (fun (name, p) ->
         [ name; Printf.sprintf "%.0f" (per_op name); string_of_int p ])
       paper);
  E.Report.note "absolute values depend on this host's CPU and the OCaml runtime;";
  E.Report.note "the claim preserved is user-level ops at tens-to-hundreds of ns,";
  E.Report.note "orders of magnitude below pthread spawn (15,418 ns) and condvar (2,532 ns)"

(* ---- simulator primitive microbenchmarks ------------------------------- *)

let bench_eventq () =
  let module Eventq = Skyloft_sim.Eventq in
  let q = Eventq.create () in
  for i = 1 to 1000 do
    ignore (Eventq.schedule q ~at:i ())
  done;
  while not (Eventq.is_empty q) do
    Eventq.pop_exn q
  done

let bench_engine_events () =
  let module Engine = Skyloft_sim.Engine in
  let engine = Engine.create () in
  for i = 1 to 1000 do
    ignore (Engine.at engine i (fun () -> ()))
  done;
  Engine.run engine

let sim_tests =
  Test.make_grouped ~name:"sim"
    [
      Test.make ~name:"eventq-1k" (Staged.stage bench_eventq);
      Test.make ~name:"engine-1k" (Staged.stage bench_engine_events);
    ]

let print_sim_bench () =
  E.Report.section "Simulator primitives (Bechamel; cost per simulated event)";
  let results = run_bench sim_tests in
  E.Report.table
    ~header:[ "primitive"; "ns per event" ]
    [
      [ "eventq schedule+pop"; Printf.sprintf "%.0f" (estimate results "sim/eventq-1k" /. 1000.) ];
      [ "engine schedule+fire"; Printf.sprintf "%.0f" (estimate results "sim/engine-1k" /. 1000.) ];
    ]

(* ---- allocator decision path -------------------------------------------- *)

(* Cost of one Allocator.tick — sample + policy + arbitration + apply — on a
   20-core pool with one LC and one BE binding.  The synthetic sample
   alternates congested/idle phases so every tick walks the full decision
   path and a fair share of ticks actually move cores. *)
module Allocator = Skyloft_alloc.Allocator
module Alloc_policy = Skyloft_alloc.Policy
module Time' = Skyloft_sim.Time

let alloc_ticks_per_run = 1000

let bench_alloc_ticks make_policy () =
  let engine = Skyloft_sim.Engine.create () in
  let t =
    Allocator.create ~engine ~policy:(make_policy ())
      ~interval:(Time'.us 5) ~total_cores:20 ()
  in
  let phase = ref 0 in
  Allocator.register t ~app:0 ~name:"lc" ~kind:Alloc_policy.Lc
    ~bounds:{ Allocator.guaranteed = 0; burstable = 20 }
    ~initial:10
    ~sample:(fun () ->
      incr phase;
      let congested = !phase land 8 <> 0 in
      {
        Allocator.runq_len = (if congested then 4 else 0);
        oldest_delay = (if congested then Time'.us 20 else 0);
        busy_ns = !phase * Time'.us (if congested then 48 else 5);
      })
    ~apply:(fun ~granted:_ ~delta:_ -> 0);
  Allocator.register t ~app:1 ~name:"be" ~kind:Alloc_policy.Be
    ~bounds:{ Allocator.guaranteed = 0; burstable = 20 }
    ~initial:10
    ~sample:(fun () ->
      { Allocator.runq_len = 100; oldest_delay = 0; busy_ns = !phase * Time'.us 45 })
    ~apply:(fun ~granted:_ ~delta -> Skyloft_hw.Costs.app_switch_ns * abs delta);
  for _ = 1 to alloc_ticks_per_run do
    Allocator.tick t
  done

let alloc_tests =
  Test.make_grouped ~name:"alloc"
    (List.map
       (fun (name, make_policy) ->
         Test.make ~name (Staged.stage (bench_alloc_ticks make_policy)))
       E.Colocate_alloc.policies)

let print_alloc_bench () =
  E.Report.section
    "Core allocator decision path (Bechamel; one tick, 2 apps, 20 cores)";
  let results = run_bench alloc_tests in
  E.Report.table
    ~header:[ "policy"; "ns per tick (this host)" ]
    (List.map
       (fun (name, _) ->
         [
           name;
           Printf.sprintf "%.0f"
             (estimate results (Printf.sprintf "alloc/%s" name)
             /. float_of_int alloc_ticks_per_run);
         ])
       E.Colocate_alloc.policies);
  E.Report.note "the controller runs every 5us of simulated time; its real cost";
  E.Report.note "per tick bounds how many apps/cores one iokernel-style core scales to"

(* The perf-trajectory artifact: LC p99 and BE CPU share per policy at 0.5x
   and 0.8x load, as JSON, so future changes can be compared mechanically. *)
let bench_alloc_json_path = "BENCH_alloc.json"

let write_bench_alloc_json config =
  let loads = [ 0.5; 0.8 ] in
  let per_policy =
    List.map
      (fun ((name, _) as policy) ->
        ( name,
          List.map
            (fun load_frac ->
              (load_frac, E.Colocate_alloc.run_point config ~policy ~load_frac))
            loads ))
      E.Colocate_alloc.policies
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"duration_ms\": %.3f,\n  \"seed\": %d,\n"
       (float_of_int config.E.Config.duration /. 1e6)
       config.E.Config.seed);
  Buffer.add_string buf "  \"policies\": {\n";
  List.iteri
    (fun i (name, pts) ->
      Buffer.add_string buf (Printf.sprintf "    %S: {\n" name);
      List.iteri
        (fun j (load_frac, (p : E.Colocate_alloc.point)) ->
          Buffer.add_string buf
            (Printf.sprintf
               "      \"%.1f\": { \"lc_p99_us\": %.2f, \"be_share\": %.4f }%s\n"
               load_frac p.E.Colocate_alloc.p99_us p.E.Colocate_alloc.be_share
               (if j = List.length pts - 1 then "" else ",")))
        pts;
      Buffer.add_string buf
        (Printf.sprintf "    }%s\n"
           (if i = List.length per_policy - 1 then "" else ",")))
    per_policy;
  Buffer.add_string buf "  }\n}\n";
  let oc = open_out bench_alloc_json_path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  E.Report.note "machine-readable per-policy results written to %s"
    bench_alloc_json_path

(* ---- observability layer (lib/obs) -------------------------------------- *)

(* Cost of the pull-based observation path itself: snapshotting a registry
   the size a two-app run produces, rendering it to Prometheus text, and
   the trace-analysis pass (utilization + invariants) over a full ring. *)
module Registry = Skyloft_obs.Registry
module Trace_analysis = Skyloft_obs.Trace_analysis
module Attribution = Skyloft_obs.Attribution
module Trace = Skyloft_stats.Trace
module Histogram' = Skyloft_stats.Histogram
module Timeseries' = Skyloft_stats.Timeseries

let obs_cores = 8
let obs_spans_per_core = 1000

let obs_registry () =
  let reg = Registry.create () in
  for c = 0 to obs_cores - 1 do
    let labels = [ Registry.core c ] in
    (* slot-backed per-core counter: same snapshot output as the closure
       form this used to be, but incremented as one unboxed slab word *)
    let slot = Registry.counter_slot reg ~labels "bench_counter" in
    Registry.bump_by reg slot c;
    Registry.gauge reg ~labels "bench_gauge" (fun () -> float_of_int c);
    let h = Histogram'.create () in
    for i = 1 to 100 do
      Histogram'.record h (i * 1000)
    done;
    Registry.histogram reg ~labels "bench_hist" h;
    let s = Timeseries'.create () in
    for i = 1 to 100 do
      Timeseries'.record s ~at:(i * 1000) i
    done;
    Registry.series reg ~labels "bench_series" s
  done;
  reg

let obs_trace () =
  let trace = Trace.create ~capacity:(obs_cores * obs_spans_per_core) () in
  for core = 0 to obs_cores - 1 do
    for i = 0 to obs_spans_per_core - 1 do
      let start = i * 2000 in
      Trace.span trace ~core ~app:(i land 1) ~name:"t" ~start ~stop:(start + 1000)
    done
  done;
  trace

let obs_tests =
  let reg = obs_registry () in
  let samples = Registry.snapshot ~until:(Time'.ms 1) reg in
  let trace = obs_trace () in
  Test.make_grouped ~name:"obs"
    [
      Test.make ~name:"snapshot"
        (Staged.stage (fun () -> ignore (Registry.snapshot ~until:(Time'.ms 1) reg)));
      Test.make ~name:"prometheus"
        (Staged.stage (fun () -> ignore (Registry.to_prometheus samples)));
      Test.make ~name:"analysis"
        (Staged.stage (fun () ->
             ignore (Trace_analysis.utilization trace ~until:(Time'.ms 2));
             ignore (Trace_analysis.check trace)));
    ]

let print_obs_bench () =
  E.Report.section
    "Observability layer (Bechamel; registry snapshot/render + trace analysis)";
  let results = run_bench obs_tests in
  E.Report.table
    ~header:[ "operation"; "ns per call (this host)" ]
    [
      [ Printf.sprintf "snapshot (%d instruments)" (4 * obs_cores);
        Printf.sprintf "%.0f" (estimate results "obs/snapshot") ];
      [ "prometheus render"; Printf.sprintf "%.0f" (estimate results "obs/prometheus") ];
      [ Printf.sprintf "trace analysis (%d spans)" (obs_cores * obs_spans_per_core);
        Printf.sprintf "%.0f" (estimate results "obs/analysis") ];
    ];
  E.Report.note "observation is pull-based: none of these costs exist inside a run"

(* The determinism artifact: per runtime, the attribution means and the
   fingerprints of the registry-on and registry-off runs — the two must be
   identical, proving observation never perturbs the simulation. *)
let bench_obs_json_path = "BENCH_obs.json"

let write_bench_obs_json config =
  let runs =
    List.map
      (fun runtime ->
        let on_ = E.Obs_report.run_point config ~runtime ~instrumented:true in
        let off = E.Obs_report.run_point config ~runtime ~instrumented:false in
        (on_.E.Obs_report.runtime, on_, off))
      E.Obs_report.runtimes
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"duration_ms\": %.3f,\n  \"seed\": %d,\n"
       (float_of_int config.E.Config.duration /. 1e6)
       config.E.Config.seed);
  Buffer.add_string buf "  \"runtimes\": {\n";
  List.iteri
    (fun i (name, (on_ : E.Obs_report.point), (off : E.Obs_report.point)) ->
      let lc = List.assoc "lc" on_.E.Obs_report.rows in
      let mean h = Histogram'.mean h in
      Buffer.add_string buf (Printf.sprintf "    %S: {\n" name);
      Buffer.add_string buf
        (Printf.sprintf
           "      \"requests\": %d, \"mismatches\": %d, \"violations\": %d,\n"
           on_.E.Obs_report.requests on_.E.Obs_report.mismatches
           (List.length on_.E.Obs_report.violations));
      Buffer.add_string buf
        (Printf.sprintf
           "      \"fingerprint_on\": %S, \"fingerprint_off\": %S, \
            \"identical\": %b,\n"
           on_.E.Obs_report.fingerprint off.E.Obs_report.fingerprint
           (on_.E.Obs_report.fingerprint = off.E.Obs_report.fingerprint));
      Buffer.add_string buf
        (Printf.sprintf
           "      \"mean_ns\": { \"queueing\": %.1f, \"service\": %.1f, \
            \"overhead\": %.1f, \"stall\": %.1f, \"response\": %.1f }\n"
           (mean (Attribution.queueing lc))
           (mean (Attribution.service lc))
           (mean (Attribution.overhead lc))
           (mean (Attribution.stall lc))
           (mean (Attribution.response lc)));
      Buffer.add_string buf
        (Printf.sprintf "    }%s\n" (if i = List.length runs - 1 then "" else ",")))
    runs;
  Buffer.add_string buf "  }\n}\n";
  let oc = open_out bench_obs_json_path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  List.iter
    (fun (name, (on_ : E.Obs_report.point), (off : E.Obs_report.point)) ->
      if on_.E.Obs_report.fingerprint <> off.E.Obs_report.fingerprint then
        failwith
          (Printf.sprintf
             "BENCH_obs: %s registry-on run differs from registry-off run" name))
    runs;
  E.Report.note "obs determinism artifact written to %s" bench_obs_json_path

(* ---- oversubscription bench: broker cost per request -------------------- *)

let bench_oversub_json_path = "BENCH_oversub.json"
let bench_oversub_requests = 2_000

let write_bench_oversub_json () =
  E.Report.section
    "Oversubscribed machine: host cost per simulated request (broker cells)";
  let clock = Toolkit.Monotonic_clock.make () in
  let wall f =
    let t0 = Toolkit.Monotonic_clock.get clock in
    let r = f () in
    let t1 = Toolkit.Monotonic_clock.get clock in
    ((t1 -. t0) /. 1e9, r)
  in
  (* one cell per (mix, scenario) at a fixed fleet size: the broker's own
     overhead dominates here, not the workload *)
  let n = 8 in
  let cells =
    List.concat_map
      (fun mix -> List.map (fun sc -> (mix, sc)) E.Oversub.scenarios)
      E.Oversub.mixes
  in
  let run_all ~jobs =
    E.Parallel.map ~jobs
      (fun (mix, scenario) ->
        let secs, r =
          wall (fun () ->
              E.Oversub.run_cell ~seed:7 ~mix ~n ~scenario
                ~requests:bench_oversub_requests)
        in
        (secs, Skyloft_scenario.Placement.digest_string r))
      cells
  in
  let j1 = run_all ~jobs:1 in
  let j4 = run_all ~jobs:4 in
  List.iteri
    (fun i ((_, d1), (_, d4)) ->
      if not (String.equal d1 d4) then
        let mix, sc = List.nth cells i in
        failwith
          (Printf.sprintf "BENCH_oversub: %s/%s digest differs at -j 4" mix sc))
    (List.combine j1 j4);
  let total_requests = n * bench_oversub_requests in
  let rows =
    List.map2
      (fun (mix, sc) (secs, _) ->
        (mix, sc, secs, secs *. 1e9 /. float_of_int total_requests))
      cells j1
  in
  E.Report.table
    ~header:[ "mix"; "scenario"; "wall (s)"; "host ns/request" ]
    (List.map
       (fun (mix, sc, secs, nspr) ->
         [ mix; sc; Printf.sprintf "%.2f" secs; Printf.sprintf "%.0f" nspr ])
       rows);
  E.Report.note
    "%d tenants x %d requests per cell; digests at -j 4 == -j 1 (checked)" n
    bench_oversub_requests;
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"tenants\": %d,\n" n);
  Buffer.add_string buf
    (Printf.sprintf "  \"requests_per_tenant\": %d,\n" bench_oversub_requests);
  Buffer.add_string buf "  \"cells\": [\n";
  List.iteri
    (fun i (mix, sc, secs, nspr) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"mix\": \"%s\", \"scenario\": \"%s\", \"wall_seconds\": \
            %.3f, \"host_ns_per_request\": %.1f }%s\n"
           mix sc secs nspr
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"digests_identical_j1_j4\": true\n";
  Buffer.add_string buf "}\n";
  let oc = open_out bench_oversub_json_path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  E.Report.note "oversub throughput written to %s" bench_oversub_json_path

(* ---- main --------------------------------------------------------------- *)

let () =
  let config =
    match Sys.getenv_opt "SKYLOFT_BENCH" with
    | Some "quick" -> E.Config.quick
    | Some "full" -> E.Config.full
    | Some "default" | None | Some _ -> E.Config.default
  in
  Printf.printf "Skyloft reproduction benchmark harness\n";
  Printf.printf "(simulated duration per data point: %s; seed %d)\n"
    (Format.asprintf "%a" Skyloft_sim.Time.pp config.E.Config.duration)
    config.E.Config.seed;

  (* Microbenchmarks (real code measured on this host). *)
  print_table7_measured ();
  print_sim_bench ();
  print_alloc_bench ();
  print_obs_bench ();

  (* Tables. *)
  ignore (E.Tables.print_table4 ());
  E.Tables.print_table5 ();
  ignore (E.Tables.print_table6 ());
  ignore (E.Tables.print_table7_model ());
  E.Tables.print_appswitch ();

  (* Figures. *)
  ignore (E.Fig5.print config);
  ignore (E.Fig6.print config);
  ignore (E.Fig7.print_a config);
  let b = E.Fig7.print_b config in
  ignore (E.Fig7.print_c config b);
  ignore (E.Fig8.print_a config);
  ignore (E.Fig8.print_b config);

  (* Core-allocation policy comparison (lib/alloc) + perf-trajectory JSON. *)
  ignore (E.Colocate_alloc.print config);
  write_bench_alloc_json config;

  (* Fault-rate sweep (lib/fault): recovery machinery + BENCH_fault.json. *)
  ignore (E.Fault_sweep.print config);

  (* Observability layer (lib/obs): attribution identity, trace invariants,
     and the registry-on == registry-off determinism proof + BENCH_obs.json. *)
  write_bench_obs_json config;

  (* Core broker (lib/alloc + lib/scenario placement): oversubscribed
     multi-tenant cells + -j identity proof + BENCH_oversub.json. *)
  write_bench_oversub_json ();

  (* Ablations of the design choices (DESIGN.md §5). *)
  E.Ablations.print config;
  Printf.printf "\nAll tables and figures regenerated.\n"
