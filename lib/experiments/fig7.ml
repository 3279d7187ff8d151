module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Summary = Skyloft_stats.Summary
module App = Skyloft.App
module Hybrid = Skyloft.Hybrid
module Synthetic = Skyloft_apps.Synthetic
module Linux_workload = Skyloft_baselines.Linux_workload
module Dist = Skyloft_sim.Dist
module Rc = Skyloft.Runtime_core
module Allocator = Skyloft_alloc.Allocator

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
  achieved_rps : float;
  p99_us : float;
  be_share : float;  (** batch app share of worker CPU *)
}

(* The 20-worker centralized cell: the global FIFO queue behind the
   serial dispatcher over [mechanism] (Skyloft-Shinjuku).  With [with_be]
   a batch application soaks up what the LC load leaves idle, under
   [alloc] ([None]: the default allocator), which makes it
   Skyloft-Shinjuku-Shenango.  Returns the runtime, the LC and batch
   apps, and the LC requests served and the batch busy time at the end of
   the measured window. *)
let centralized (config : Config.t) ~mechanism ~quantum ~alloc ~with_be ~rate_rps =
  let engine, machine, kmod = Harness.fresh config in
  let rt =
    Hybrid.runtime
      (Hybrid.create machine kmod ~dispatcher_core ~worker_cores ~quantum
         ~adaptive:false ~mechanism (Skyloft_policies.Fifo.create ()))
  in
  let lc = Rc.create_app rt ~name:"lc" in
  let be = Rc.create_app rt ~name:"batch" in
  if with_be then begin
    Rc.attach_be_app rt ?alloc be ~chunk:(Time.us 50) ~workers:n_workers;
    (* colocate-alloc reads BE's grant series after the run *)
    Option.iter (fun a -> ignore (Allocator.series a ~app:be.App.id)) (Rc.allocator rt)
  end;
  let rng = Engine.split_rng engine in
  Synthetic.drive rt lc engine ~rng ~rate_rps ~duration:config.duration;
  let window =
    Harness.window engine config (fun () ->
        (Summary.requests lc.App.summary, be.App.busy_ns))
  in
  Engine.run ~until:(config.duration + Time.ms 60) engine;
  (rt, lc, be, window ())

let run_centralized config ~mechanism ~quantum ~with_be ~rate_rps =
  let _, lc, be, (served, _) =
    centralized config ~mechanism ~quantum ~alloc:None ~with_be ~rate_rps
  in
  {
    achieved_rps = Harness.per_s config served;
    p99_us = Time.to_us_float (Summary.latency_p lc.App.summary 99.0);
    be_share =
      App.cpu_share be ~total_ns:(n_workers * (config.duration + Time.ms 60));
  }

let run_linux (config : Config.t) ~with_be ~rate_rps =
  let engine, machine, _ = Harness.fresh config in
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
    achieved_rps = Harness.per_s config (Linux_workload.served_in_window t);
    p99_us = Time.to_us_float (Summary.latency_p summary 99.0);
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

let sweep (config : Config.t) systems ~with_be =
  List.map
    (fun (s, pts) -> (system_name s, pts))
    (Parallel.grid ~jobs:config.jobs systems load_fractions (fun s frac ->
         run_point config s ~with_be ~rate_rps:(frac *. saturation)))

let systems_7a = [ Skyloft_c (Time.us 30); Skyloft_c (Time.us 15); Shinjuku_c; Ghost_c; Linux_c ]
let systems_7bc = [ Skyloft_c (Time.us 30); Shinjuku_c; Ghost_c; Linux_c ]

let print_latency_table =
  Report.series "system" (Report.loads load_fractions) (fun p ->
      Printf.sprintf "%.0f" p.p99_us)

let print_slo_summary results =
  Report.subsection "max throughput at p99 <= 200us SLO (krps)";
  Harness.print_knees "max krps @ 200us" ~slo:200.0
    (fun p -> p.p99_us)
    (fun p -> p.achieved_rps)
    results

let print_a config =
  Report.section
    (Printf.sprintf
       "Figure 7a: p99 latency (us) vs offered load, dispersive workload (saturation \
        ~%.0f krps)"
       (saturation /. 1000.));
  let results = sweep config systems_7a ~with_be:false in
  print_latency_table results;
  Report.subsection "achieved throughput (krps)";
  Report.series "system (krps achieved)" (Report.loads load_fractions)
    (fun p -> Report.krps p.achieved_rps)
    results;
  print_slo_summary results;
  Report.note "paper: Skyloft ~ Shinjuku; ghOSt ~0.8x max throughput, ~3x low-load p99;";
  Report.note "       Linux CFS ~0.59x max throughput"

let print_b config =
  Report.section "Figure 7b: p99 latency (us) with a co-located batch application";
  let results = sweep config systems_7bc ~with_be:true in
  print_latency_table results;
  print_slo_summary results;
  Report.note "paper: co-location does not change Skyloft's tail latency";
  results

(* Figure 7c reads the 7b sweep, so it prints 7b first. *)
let print_c config =
  let results_b = print_b config in
  Report.section "Figure 7c: CPU share of the batch application vs load";
  Report.series "system" (Report.loads load_fractions)
    (fun p -> Report.pct p.be_share)
    results_b;
  Report.note "paper: Skyloft ~ ghOSt ~ Linux batch share; Shinjuku is zero (single-app)"
