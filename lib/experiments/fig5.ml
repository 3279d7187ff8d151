module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Linux = Skyloft_kernel.Linux
module Kmod = Skyloft_kernel.Kmod
module Histogram = Skyloft_stats.Histogram
module Percpu = Skyloft.Percpu
module Runner = Skyloft_apps.Runner
module Schbench = Skyloft_apps.Schbench
module Rc = Skyloft.Runtime_core

(** Figure 5: schbench wakeup latency across schedulers, 24 cores, 1
    message thread, growing worker count.  Linux schedulers run with the
    Table 5 parameters (timer capped at 1000 Hz); Skyloft policies run at
    a 100 kHz user-space timer.  The paper's headline: ~100 µs wakeup
    latency under Skyloft vs ~10,000 µs under Linux once the cores are
    oversubscribed. *)

type system =
  | Linux_sys of Linux.policy * string
  | Skyloft_sys of (unit -> Skyloft.Sched_ops.ctor) * string

let cores = List.init 24 Fun.id

let systems =
  [
    Linux_sys (Linux.rr_default, "Linux-RR");
    Linux_sys (Linux.cfs_default, "Linux-CFS");
    Linux_sys (Linux.cfs_tuned, "Linux-CFS-tuned");
    Linux_sys (Linux.eevdf_default, "Linux-EEVDF");
    Linux_sys (Linux.eevdf_tuned, "Linux-EEVDF-tuned");
    Skyloft_sys
      ((fun () -> Skyloft_policies.Rr.create ~slice:(Time.us 50) ()), "Skyloft-RR");
    Skyloft_sys ((fun () -> Skyloft_policies.Cfs.create ()), "Skyloft-CFS");
    Skyloft_sys ((fun () -> Skyloft_policies.Eevdf.create ()), "Skyloft-EEVDF");
  ]

let name_of = function Linux_sys (_, n) -> n | Skyloft_sys (_, n) -> n

let worker_counts = [ 8; 16; 24; 32; 48; 64 ]

let run_one (config : Config.t) system ~workers =
  let engine = Engine.create ~seed:config.seed () in
  let machine = Machine.create engine Topology.paper_server in
  let runner =
    match system with
    | Linux_sys (policy, _) -> Runner.of_linux (Linux.create machine policy ~cores)
    | Skyloft_sys (ctor, _) ->
        let kmod = Kmod.create machine in
        let rt =
          Percpu.runtime (Percpu.create machine kmod ~cores ~timer_hz:100_000 (ctor ()))
        in
        Runner.of_runtime rt (Rc.create_app rt ~name:"schbench")
  in
  Schbench.run runner engine (Schbench.default_config ~workers) ~duration:config.duration

type point = { workers : int; p50 : Time.t; p99 : Time.t; samples : int }

let point config system ~workers =
  let h = run_one config system ~workers in
  {
    workers;
    p50 = Histogram.percentile h 50.0;
    p99 = Histogram.percentile h 99.0;
    samples = Histogram.count h;
  }

let sweep (config : Config.t) system =
  Parallel.map ~jobs:config.jobs
    (fun workers -> point config system ~workers)
    worker_counts

let print (config : Config.t) =
  Report.section
    "Figure 5: schbench p99 wakeup latency (us) vs worker threads, 24 cores";
  (* One cell per (system, worker count): the whole grid fans across
     domains instead of one row at a time. *)
  let cells =
    List.concat_map
      (fun s -> List.map (fun w -> (s, w)) worker_counts)
      systems
  in
  let points =
    Parallel.map ~jobs:config.jobs
      (fun (s, w) -> point config s ~workers:w)
      cells
  in
  let results =
    List.map2
      (fun s pts -> (name_of s, pts))
      systems
      (Parallel.group ~size:(List.length worker_counts) points)
  in
  let header = "system" :: List.map string_of_int worker_counts in
  let rows =
    List.map
      (fun (name, points) -> name :: List.map (fun p -> Report.us p.p99) points)
      results
  in
  Report.table ~header rows;
  Report.note
    "paper: Skyloft policies stay ~100us while Linux reaches ~10,000us once workers > cores";
  (* Also print p50 for completeness *)
  Report.subsection "p50 wakeup latency (us)";
  let rows50 =
    List.map
      (fun (name, points) -> name :: List.map (fun p -> Report.us p.p50) points)
      results
  in
  Report.table ~header rows50;
  results
