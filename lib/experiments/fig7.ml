module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Kmod = Skyloft_kernel.Kmod
module Summary = Skyloft_stats.Summary
module App = Skyloft.App
module Hybrid = Skyloft.Hybrid
module Synthetic = Skyloft_apps.Synthetic
module Linux_workload = Skyloft_baselines.Linux_workload
module Dist = Skyloft_sim.Dist
module Rc = Skyloft.Runtime_core

(** Figure 7: the §5.2 synthetic comparison on the dispersive workload
    (99.5% 4 µs / 0.5% 10 ms), 20 worker cores plus one dispatcher/load
    generator core.

    - (a) p99 tail latency vs offered load: Skyloft-Shinjuku (user IPIs) ~
      original Shinjuku (posted interrupts), ghOSt tops out around 0.8x
      with ~3x worse low-load tails, Linux CFS reaches ~0.59x.
    - (b) the same with a co-located batch application.
    - (c) the batch application's CPU share vs load: Skyloft ~ Linux ~
      ghOSt; original Shinjuku is identically zero (no multi-app). *)

type system = Skyloft_c of Time.t | Shinjuku_c | Ghost_c | Linux_c

let system_name = function
  | Skyloft_c q -> Printf.sprintf "Skyloft (q=%.0fus)" (Time.to_us_float q)
  | Shinjuku_c -> "Shinjuku"
  | Ghost_c -> "ghOSt"
  | Linux_c -> "Linux CFS"

let n_workers = 20
let dispatcher_core = 0
let worker_cores = List.init n_workers (fun i -> i + 1)
let saturation = Synthetic.saturation_rps ~cores:n_workers

type point = {
  offered_rps : float;
  achieved_rps : float;
  p99_us : float;
  p999_us : float;
  be_share : float;  (** batch app share of worker CPU *)
}

(* A batch application soaking up whatever the LC load leaves idle. *)
let attach_batch rt be =
  Rc.attach_be_app rt be ~chunk:(Time.us 50) ~workers:n_workers

let run_centralized (config : Config.t) ~mechanism ~quantum ~with_be ~rate_rps =
  let engine = Engine.create ~seed:config.seed () in
  let machine = Machine.create engine Topology.paper_server in
  let kmod = Kmod.create machine in
  (* single-workload runs use the plain Shinjuku policy; co-location uses
     the Shinjuku-Shenango variant (same queue, plus the congestion
     signal), matching the paper's Table 4 naming *)
  let policy =
    if with_be then fst (Skyloft_policies.Shinjuku_shenango.create ())
    else Skyloft_policies.Shinjuku.create ()
  in
  let rt =
    Hybrid.runtime
      (Hybrid.create machine kmod ~dispatcher_core ~worker_cores ~quantum
         ~adaptive:false ~mechanism policy)
  in
  let lc = Rc.create_app rt ~name:"lc" in
  let be = Rc.create_app rt ~name:"batch" in
  if with_be then attach_batch rt be;
  let rng = Engine.split_rng engine in
  Synthetic.drive rt lc engine ~rng ~rate_rps ~duration:config.duration;
  (* Throughput is completions inside the offered-load window; counting the
     drain tail would overstate a saturated system. *)
  let in_window = ref 0 in
  ignore
    (Engine.at engine config.duration (fun () ->
         in_window := Summary.requests lc.App.summary));
  Engine.run ~until:(config.duration + Time.ms 60) engine;
  let total_worker_ns = n_workers * (config.duration + Time.ms 60) in
  {
    offered_rps = rate_rps;
    achieved_rps = float_of_int !in_window /. Time.to_s_float config.duration;
    p99_us = Time.to_us_float (Summary.latency_p lc.App.summary 99.0);
    p999_us = Time.to_us_float (Summary.latency_p lc.App.summary 99.9);
    be_share = App.cpu_share be ~total_ns:total_worker_ns;
  }

let run_linux (config : Config.t) ~with_be ~rate_rps =
  let engine = Engine.create ~seed:config.seed () in
  let machine = Machine.create engine Topology.paper_server in
  let cores = List.init (n_workers + 1) Fun.id in
  let rng = Engine.split_rng engine in
  let batch_threads = if with_be then n_workers else 0 in
  let t =
    Linux_workload.run machine ~cores ~rng ~rate_rps ~service:Dist.dispersive
      ~duration:config.duration ~batch_threads ()
  in
  let total_worker_ns = (n_workers + 1) * (config.duration + Time.ms 50) in
  let summary = Linux_workload.summary t in
  {
    offered_rps = rate_rps;
    achieved_rps =
      float_of_int (Linux_workload.served_in_window t)
      /. Time.to_s_float config.duration;
    p99_us = Time.to_us_float (Summary.latency_p summary 99.0);
    p999_us = Time.to_us_float (Summary.latency_p summary 99.9);
    be_share =
      float_of_int (Linux_workload.batch_busy_ns t) /. float_of_int total_worker_ns;
  }

let run_point config system ~with_be ~rate_rps =
  match system with
  | Skyloft_c q ->
      run_centralized config ~mechanism:Hybrid.skyloft_mechanism ~quantum:q
        ~with_be ~rate_rps
  | Shinjuku_c ->
      (* Shinjuku cannot host a second application: BE never attached. *)
      run_centralized config ~mechanism:Hybrid.shinjuku_mechanism
        ~quantum:(Time.us 30) ~with_be:false ~rate_rps
  | Ghost_c ->
      run_centralized config ~mechanism:Hybrid.ghost_mechanism ~quantum:(Time.us 30)
        ~with_be ~rate_rps
  | Linux_c -> run_linux config ~with_be ~rate_rps

let load_fractions = [ 0.1; 0.3; 0.5; 0.6; 0.7; 0.8; 0.9; 0.95; 1.0; 1.1; 1.3 ]

let sweep (config : Config.t) system ~with_be =
  Parallel.map ~jobs:config.jobs
    (fun frac -> run_point config system ~with_be ~rate_rps:(frac *. saturation))
    load_fractions

(* One cell per (system, load fraction): the whole grid fans across
   domains instead of one system row at a time. *)
let sweep_all (config : Config.t) systems ~with_be =
  let cells =
    List.concat_map
      (fun s -> List.map (fun frac -> (s, frac)) load_fractions)
      systems
  in
  let points =
    Parallel.map ~jobs:config.jobs
      (fun (s, frac) -> run_point config s ~with_be ~rate_rps:(frac *. saturation))
      cells
  in
  List.map2
    (fun s pts -> (system_name s, pts))
    systems
    (Parallel.group ~size:(List.length load_fractions) points)

let systems_7a = [ Skyloft_c (Time.us 30); Skyloft_c (Time.us 15); Shinjuku_c; Ghost_c; Linux_c ]
let systems_7bc = [ Skyloft_c (Time.us 30); Shinjuku_c; Ghost_c; Linux_c ]

let print_latency_table results =
  let header =
    "system" :: List.map (fun f -> Printf.sprintf "%.0f%%" (f *. 100.)) load_fractions
  in
  let rows =
    List.map
      (fun (name, points) ->
        name :: List.map (fun p -> Printf.sprintf "%.0f" p.p99_us) points)
      results
  in
  Report.table ~header rows

let print_throughput_table results =
  let header =
    "system (krps achieved)"
    :: List.map (fun f -> Printf.sprintf "%.0f%%" (f *. 100.)) load_fractions
  in
  let rows =
    List.map
      (fun (name, points) ->
        name :: List.map (fun p -> Report.krps p.achieved_rps) points)
      results
  in
  Report.table ~header rows

(** Highest achieved load whose p99 stays under the SLO — the "maximum
    throughput" number the paper quotes (tail explosion = saturation). *)
let max_load_under_slo points ~slo_us =
  List.fold_left
    (fun acc p -> if p.p99_us <= slo_us then max acc p.achieved_rps else acc)
    0.0 points

let print_slo_summary results =
  Report.subsection "max throughput at p99 <= 200us SLO (krps)";
  Report.table
    ~header:[ "system"; "max krps @ 200us" ]
    (List.map
       (fun (name, points) ->
         [ name; Report.krps (max_load_under_slo points ~slo_us:200.0) ])
       results)

let print_a config =
  Report.section
    (Printf.sprintf
       "Figure 7a: p99 latency (us) vs offered load, dispersive workload (saturation \
        ~%.0f krps)"
       (saturation /. 1000.));
  let results = sweep_all config systems_7a ~with_be:false in
  print_latency_table results;
  Report.subsection "achieved throughput (krps)";
  print_throughput_table results;
  print_slo_summary results;
  Report.note "paper: Skyloft ~ Shinjuku; ghOSt ~0.8x max throughput, ~3x low-load p99;";
  Report.note "       Linux CFS ~0.59x max throughput";
  results

let print_b config =
  Report.section "Figure 7b: p99 latency (us) with a co-located batch application";
  let results = sweep_all config systems_7bc ~with_be:true in
  print_latency_table results;
  print_slo_summary results;
  Report.note "paper: co-location does not change Skyloft's tail latency";
  results

let print_c (_config : Config.t) results_b =
  Report.section "Figure 7c: CPU share of the batch application vs load";
  let header =
    "system" :: List.map (fun f -> Printf.sprintf "%.0f%%" (f *. 100.)) load_fractions
  in
  let rows =
    List.map
      (fun (name, points) -> name :: List.map (fun p -> Report.pct p.be_share) points)
      results_b
  in
  Report.table ~header rows;
  Report.note "paper: Skyloft ~ ghOSt ~ Linux batch share; Shinjuku is zero (single-app)";
  rows
