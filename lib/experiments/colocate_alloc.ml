module Time = Skyloft_sim.Time
module Summary = Skyloft_stats.Summary
module Timeseries = Skyloft_stats.Timeseries
module App = Skyloft.App
module Hybrid = Skyloft.Hybrid
module Allocator = Skyloft_alloc.Allocator
module Alloc_policy = Skyloft_alloc.Policy
module Rc = Skyloft.Runtime_core

(** Core-allocation policy comparison (§5.2 "Multiple workloads", the
    lib/alloc subsystem): the Figure 7b/7c co-location setup — dispersive
    LC workload plus a batch application on 20 worker cores — swept over
    LC load under each allocator policy.

    For every policy and load point we report the LC p99, the batch
    application's CPU share, the mean number of cores the allocator left
    granted to BE, and the §5.4 inter-application switch cost the
    allocator's decisions incurred.  A good policy keeps the BE share
    close to the idle fraction the LC load leaves behind without hurting
    the LC tail; a twitchy one burns the gap in switch costs. *)

(* Policies are stateful (hysteresis counters live inside), so each run
   builds a fresh instance. *)
let policies : (string * (unit -> Alloc_policy.t)) list =
  [
    ("static", Alloc_policy.static);
    ("utilization", fun () -> Alloc_policy.utilization ());
    ("delay", fun () -> Alloc_policy.delay ());
  ]

type point = {
  p99_us : float;
  be_share : float;  (** batch share of worker CPU inside the load window *)
  mean_be_cores : float;
  grants : int;
  reclaims : int;
  yields : int;
  charged_us : float;  (** switch cost charged for allocator moves *)
}

(* Figure 7's co-located Skyloft cell (q = 30 µs) under [policy]. *)
let run_point (config : Config.t) ~policy:(_, make_policy) ~load_frac =
  let rt, lc, be, (_, be_busy) =
    Fig7.centralized config ~mechanism:Hybrid.skyloft_mechanism
      ~quantum:(Time.us 30)
      ~alloc:
        (Some { (Allocator.default_config ()) with Allocator.policy = make_policy () })
      ~with_be:true ~rate_rps:(load_frac *. Fig7.saturation)
  in
  let alloc =
    match Rc.allocator rt with
    | Some a -> a
    | None -> failwith "colocate_alloc: allocator not started"
  in
  {
    p99_us = Time.to_us_float (Summary.latency_p lc.App.summary 99.0);
    (* Share is measured inside the load window only: the drain tail
       would hand BE free cores and overstate its share. *)
    be_share = float_of_int be_busy /. float_of_int (Fig7.n_workers * config.duration);
    mean_be_cores =
      Timeseries.mean (Allocator.series alloc ~app:be.App.id) ~until:config.duration;
    grants = Allocator.grants alloc;
    reclaims = Allocator.reclaims alloc;
    yields = Allocator.yields alloc;
    charged_us = Time.to_us_float (Allocator.charged_ns alloc);
  }

let load_fractions = [ 0.2; 0.5; 0.8 ]

let print config =
  Report.section
    (Printf.sprintf
       "Core-allocation policies: LC + batch co-location, 20 workers (saturation \
        ~%.0f krps)"
       (Fig7.saturation /. 1000.));
  let results =
    Parallel.grid ~jobs:config.Config.jobs policies load_fractions
      (fun policy load_frac -> run_point config ~policy ~load_frac)
    |> List.map (fun ((name, _), pts) -> (name, pts))
  in
  let cols = Report.loads load_fractions in
  Report.subsection "LC p99 latency (us)";
  Report.series "policy" cols (fun p -> Report.f1 p.p99_us) results;
  Report.subsection "batch CPU share (idle fraction is the headroom)";
  Report.series "policy" cols (fun p -> Report.pct p.be_share) results;
  Report.subsection "mean cores granted to batch";
  Report.series "policy" cols (fun p -> Report.f1 p.mean_be_cores) results;
  Report.subsection "allocator activity at 80% load (grants/reclaims/yields, cost)";
  Report.table
    ~header:[ "policy"; "grants"; "reclaims"; "yields"; "switch cost (us)" ]
    (List.map
       (fun (name, pts) ->
         let p = List.nth pts (List.length pts - 1) in
         [
           name;
           string_of_int p.grants;
           string_of_int p.reclaims;
           string_of_int p.yields;
           Report.f1 p.charged_us;
         ])
       results);
  Report.note "a good policy tracks the idle fraction with the BE share while";
  Report.note "keeping the LC p99 flat; every core moved costs ~1.9us (§5.4)"
