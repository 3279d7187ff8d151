module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Kmod = Skyloft_kernel.Kmod
module Summary = Skyloft_stats.Summary
module Timeseries = Skyloft_stats.Timeseries
module App = Skyloft.App
module Hybrid = Skyloft.Hybrid
module Synthetic = Skyloft_apps.Synthetic
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

let n_workers = 20
let dispatcher_core = 0
let worker_cores = List.init n_workers (fun i -> i + 1)
let saturation = Synthetic.saturation_rps ~cores:n_workers

(* Policies are stateful (hysteresis counters live inside), so each run
   builds a fresh instance. *)
let policies : (string * (unit -> Alloc_policy.t)) list =
  [
    ("static", Alloc_policy.static);
    ("utilization", fun () -> Alloc_policy.utilization ());
    ("delay", fun () -> Alloc_policy.delay ());
  ]

type point = {
  policy : string;
  load_frac : float;
  p99_us : float;
  be_share : float;  (** batch share of worker CPU inside the load window *)
  lc_share : float;
  mean_be_cores : float;
  grants : int;
  reclaims : int;
  yields : int;
  charged_us : float;  (** switch cost charged for allocator moves *)
}

let run_point (config : Config.t) ~policy:(policy_name, make_policy) ~load_frac =
  let engine = Engine.create ~seed:config.seed () in
  let machine = Machine.create engine Topology.paper_server in
  let kmod = Kmod.create machine in
  let alloc_cfg =
    { (Allocator.default_config ()) with Allocator.policy = make_policy () }
  in
  let rt =
    Hybrid.runtime
      (Hybrid.create machine kmod ~dispatcher_core ~worker_cores
         ~quantum:(Time.us 30) ~adaptive:false
         (fst (Skyloft_policies.Shinjuku_shenango.create ())))
  in
  let lc = Rc.create_app rt ~name:"lc" in
  let be = Rc.create_app rt ~name:"batch" in
  Rc.attach_be_app rt ~alloc:alloc_cfg be ~chunk:(Time.us 50) ~workers:n_workers;
  let rng = Engine.split_rng engine in
  Synthetic.drive rt lc engine ~rng ~rate_rps:(load_frac *. saturation)
    ~duration:config.duration;
  (* Share is measured inside the load window only: the drain tail would
     hand BE free cores and overstate its share. *)
  let lc_busy = ref 0 and be_busy = ref 0 in
  ignore
    (Engine.at engine config.duration (fun () ->
         lc_busy := lc.App.busy_ns;
         be_busy := be.App.busy_ns));
  Engine.run ~until:(config.duration + Time.ms 60) engine;
  let total_ns = n_workers * config.duration in
  let alloc =
    match Rc.allocator rt with
    | Some a -> a
    | None -> failwith "colocate_alloc: allocator not started"
  in
  {
    policy = policy_name;
    load_frac;
    p99_us = Time.to_us_float (Summary.latency_p lc.App.summary 99.0);
    be_share = float_of_int !be_busy /. float_of_int total_ns;
    lc_share = float_of_int !lc_busy /. float_of_int total_ns;
    mean_be_cores =
      Timeseries.mean (Allocator.series alloc ~app:be.App.id) ~until:config.duration;
    grants = Allocator.grants alloc;
    reclaims = Allocator.reclaims alloc;
    yields = Allocator.yields alloc;
    charged_us = Time.to_us_float (Allocator.charged_ns alloc);
  }

let load_fractions = [ 0.2; 0.5; 0.8 ]

let sweep (config : Config.t) ~policy =
  Parallel.map ~jobs:config.jobs
    (fun load_frac -> run_point config ~policy ~load_frac)
    load_fractions

(* One cell per (policy, load fraction), fanned across domains. *)
let sweep_all (config : Config.t) policies =
  let cells =
    List.concat_map
      (fun p -> List.map (fun load_frac -> (p, load_frac)) load_fractions)
      policies
  in
  let points =
    Parallel.map ~jobs:config.jobs
      (fun (p, load_frac) -> run_point config ~policy:p ~load_frac)
      cells
  in
  List.map2
    (fun p pts -> (fst p, pts))
    policies
    (Parallel.group ~size:(List.length load_fractions) points)

let print config =
  Report.section
    (Printf.sprintf
       "Core-allocation policies: LC + batch co-location, 20 workers (saturation \
        ~%.0f krps)"
       (saturation /. 1000.));
  let results = sweep_all config policies in
  Report.subsection "LC p99 latency (us)";
  let header =
    "policy"
    :: List.map (fun f -> Printf.sprintf "%.0f%%" (f *. 100.)) load_fractions
  in
  Report.table ~header
    (List.map
       (fun (name, pts) -> name :: List.map (fun p -> Report.f1 p.p99_us) pts)
       results);
  Report.subsection "batch CPU share (idle fraction is the headroom)";
  Report.table
    ~header:(header @ [ "" ])
    (List.map
       (fun (name, pts) ->
         (name :: List.map (fun p -> Report.pct p.be_share) pts) @ [ "" ])
       results);
  Report.subsection "mean cores granted to batch";
  Report.table ~header
    (List.map
       (fun (name, pts) ->
         name :: List.map (fun p -> Report.f1 p.mean_be_cores) pts)
       results);
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
  Report.note "keeping the LC p99 flat; every core moved costs ~1.9us (§5.4)";
  results
