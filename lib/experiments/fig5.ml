module Time = Skyloft_sim.Time
module Linux = Skyloft_kernel.Linux
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

(* One cell: the wakeup-latency histogram of one schbench run.  Figure 6
   runs the Skyloft cell with RR at other slices. *)
let run_one (config : Config.t) system ~workers =
  let engine, machine, kmod = Harness.fresh config in
  let runner =
    match system with
    | Linux_sys (policy, _) -> Runner.of_linux (Linux.create machine policy ~cores)
    | Skyloft_sys (ctor, _) ->
        let rt =
          Percpu.runtime (Percpu.create machine kmod ~cores ~timer_hz:100_000 (ctor ()))
        in
        Runner.of_runtime rt (Rc.create_app rt ~name:"schbench")
  in
  Schbench.run runner engine (Schbench.default_config ~workers) ~duration:config.duration

let sweep (config : Config.t) systems workers =
  List.map
    (fun (s, hs) -> (name_of s, hs))
    (Parallel.grid ~jobs:config.jobs systems workers (fun s w ->
         run_one config s ~workers:w))

let latency q h = Report.us (Histogram.percentile h q)

let print (config : Config.t) =
  Report.section
    "Figure 5: schbench p99 wakeup latency (us) vs worker threads, 24 cores";
  let results = sweep config systems worker_counts in
  let cols = List.map string_of_int worker_counts in
  Report.series "system" cols (latency 99.0) results;
  Report.note
    "paper: Skyloft policies stay ~100us while Linux reaches ~10,000us once workers > cores";
  Report.subsection "p50 wakeup latency (us)";
  Report.series "system" cols (latency 50.0) results
