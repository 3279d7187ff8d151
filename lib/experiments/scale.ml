module Time = Skyloft_sim.Time
module Dist = Skyloft_sim.Dist
module Scenario = Skyloft_scenario.Scenario
module Arrival = Skyloft_scenario.Arrival
module Shape = Skyloft_scenario.Shape
module Histogram = Skyloft_stats.Histogram

(** The scale experiment: a scenario x runtime sweep at millions of
    requests per cell.

    Each cell compiles one declarative scenario ({!Skyloft_scenario})
    onto one runtime and runs it to a fixed {e request count} — not a
    fixed duration like the §5 figures — because the point of the sweep
    is constant-memory accounting at 10⁷+ requests: digests are
    per-tenant log-linear histograms, never per-request lists, so live
    heap is flat from the first million requests to the last.  The
    three scenarios cover the axes the paper's fixed Poisson/bimodal
    evaluation cannot: heavy tails (bounded Pareto), bursts (MMPP
    on/off at saturating burst intensity), and a compressed diurnal day
    across 120 co-located tenants. *)

let cores = 8

(* Steady heavy tail: one open-loop Poisson tenant at ~30% load with
   Pareto(1 µs, alpha 1.3, cap 5 ms) service, plus a batch tenant with a
   guaranteed core.  The LibPreemptible axis: what a heavy tail alone
   does to each runtime's p99.9. *)
let steady_pareto =
  Scenario.make ~name:"steady-pareto" ~cores
    [
      Scenario.lc ~name:"front" ~shape:(Shape.Single Dist.pareto_heavy)
        ~arrival:(Arrival.Poisson { rate_rps = 600_000.0 });
      Scenario.be ~name:"batch" ~guaranteed:1 ();
    ]

(* Bursty chains: an MMPP tenant whose on-phases arrive at ~80% of
   saturation (2 ms bursts separated by 6 ms lulls) through a 3-stage
   sequential chain, next to a small fan-out tenant and batch work.
   Scheduler conclusions flip under exactly this shape of load. *)
let bursty_mmpp =
  Scenario.make ~name:"bursty-mmpp" ~cores
    [
      Scenario.lc ~name:"burst"
        ~shape:
          (Shape.Chain
             [
               Dist.Exponential { mean = Time.us 1 };
               Dist.Exponential { mean = Time.us 2 };
               Dist.Exponential { mean = Time.us 1 };
             ])
        ~arrival:
          (Arrival.Mmpp
             {
               rate_on = 1_600_000.0;
               rate_off = 100_000.0;
               mean_on = Time.ms 2;
               mean_off = Time.ms 6;
             });
      Scenario.lc ~name:"fanout"
        ~shape:(Shape.Fanout { width = 4; stage = Dist.Exponential { mean = Time.us 1 } })
        ~arrival:(Arrival.Poisson { rate_rps = 50_000.0 });
      Scenario.be ~name:"batch" ~guaranteed:1 ();
    ]

(* The colocation story: 120 LC tenants, each a mixer (90% short single
   stage, 10% 4-way fan-out) on its own phase-shifted diurnal curve (a
   10 ms compressed day), plus batch.  Peaks are deliberately offset so
   the aggregate stays near ~35% while individual tenants swing 20x. *)
let n_mix_tenants = 120

let mix_day =
  [ (Time.ms 2, 30_000.0); (Time.ms 3, 12_000.0); (Time.ms 5, 1_500.0) ]

let tenant_mix =
  Scenario.make ~name:"tenant-mix" ~cores
    (List.init n_mix_tenants (fun i ->
         Scenario.lc
           ~name:(Printf.sprintf "t%03d" i)
           ~shape:
             (Shape.Mix
                [
                  (0.9, Shape.Single (Dist.Exponential { mean = Time.us 2 }));
                  ( 0.1,
                    Shape.Fanout
                      { width = 4; stage = Dist.Exponential { mean = Time.us 1 } }
                  );
                ])
           ~arrival:(Arrival.Diurnal { segments = Arrival.rotate i mix_day }))
    @ [ Scenario.be ~name:"batch" ~guaranteed:1 () ])

let scenarios = [ steady_pareto; bursty_mmpp; tenant_mix ]

let print (config : Config.t) =
  (* Requests per cell: --quick 150k (the CI smoke), default 1M, --full
     10M — or exactly what --requests says. *)
  let requests =
    Harness.requests config ~quick:150_000 ~default:1_000_000 ~full:10_000_000
  in
  Report.section
    (Printf.sprintf
       "Scale: scenario x runtime sweep, %d requests per cell, %d cores"
       requests cores);
  List.iter
    (fun sc ->
      Report.note "%s: offered load %.2f, %.0f krps aggregate, %d tenants"
        sc.Scenario.name
        (Scenario.offered_load sc)
        (Scenario.mean_rate_rps sc /. 1e3)
        (List.length sc.Scenario.tenants))
    scenarios;
  let results =
    Parallel.grid ~jobs:config.jobs scenarios Scenario.runtimes (fun scenario runtime ->
        Scenario.run ~seed:config.seed ~requests ~runtime scenario)
  in
  List.iter
    (fun ((sc : Scenario.t), pts) ->
      Report.subsection sc.name;
      Report.table
        ~header:
          [
            "runtime";
            "submitted";
            "completed";
            "virtual ms";
            "krps";
            "p50 (us)";
            "p99 (us)";
            "p99.9 (us)";
            "BE grants";
            "reclaims";
          ]
        (List.map
           (fun (d : Scenario.digest) ->
             let all = Scenario.merged_latency d in
             let virtual_ms = Time.to_us_float d.last_completion /. 1e3 in
             [
               d.runtime;
               string_of_int d.submitted;
               string_of_int d.completed;
               Report.f1 virtual_ms;
               Report.f1 (float_of_int d.completed /. virtual_ms);
               Report.us (Histogram.percentile all 50.0);
               Report.us (Histogram.percentile all 99.0);
               Report.us (Histogram.percentile all 99.9);
               string_of_int d.alloc_grants;
               string_of_int d.alloc_reclaims;
             ])
           pts))
    results;
  Report.note
    "digests are streaming histograms only: live heap is flat in the request count";
  Report.note
    "same seed => byte-identical digests at any -j (goldens in skyloft_run golden)"
