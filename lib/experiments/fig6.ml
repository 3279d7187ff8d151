module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Kmod = Skyloft_kernel.Kmod
module Histogram = Skyloft_stats.Histogram
module Percpu = Skyloft.Percpu
module Runner = Skyloft_apps.Runner
module Schbench = Skyloft_apps.Schbench
module Rc = Skyloft.Runtime_core

(** Figure 6: schbench wakeup latency under Skyloft RR as a function of the
    time slice.  The paper's observation: wakeup latency is roughly
    proportional to the slice; Skyloft-FIFO (infinite slice, no
    preemption) is the worst case. *)

let cores = List.init 24 Fun.id
let slices = [ Some (Time.us 10); Some (Time.us 50); Some (Time.us 200); Some (Time.ms 1) ]
let worker_counts = [ 32; 48; 64 ]

let slice_name = function
  | Some s -> Printf.sprintf "RR-%s" (Format.asprintf "%a" Time.pp s)
  | None -> "FIFO (no preemption)"

let run_one (config : Config.t) ~slice ~workers =
  let engine = Engine.create ~seed:config.seed () in
  let machine = Machine.create engine Topology.paper_server in
  let kmod = Kmod.create machine in
  let rt =
    Percpu.runtime
      (Percpu.create machine kmod ~cores ~timer_hz:100_000
         (Skyloft_policies.Rr.create ?slice ()))
  in
  let runner = Runner.of_runtime rt (Rc.create_app rt ~name:"schbench") in
  Schbench.run runner engine (Schbench.default_config ~workers) ~duration:config.duration

let print (config : Config.t) =
  Report.section "Figure 6: schbench p99 wakeup latency (us) vs RR time slice, 24 cores";
  let header = "slice" :: List.map (fun w -> Printf.sprintf "%dw" w) worker_counts in
  let all = slices @ [ None ] in
  (* One cell per (slice, worker count), fanned across domains. *)
  let cells =
    List.concat_map (fun slice -> List.map (fun w -> (slice, w)) worker_counts) all
  in
  let points =
    Parallel.map ~jobs:config.jobs
      (fun (slice, workers) ->
        let h = run_one config ~slice ~workers in
        Report.us (Histogram.percentile h 99.0))
      cells
  in
  let rows =
    List.map2
      (fun slice row -> slice_name slice :: row)
      all
      (Parallel.group ~size:(List.length worker_counts) points)
  in
  Report.table ~header rows;
  Report.note "paper: wakeup latency is roughly proportional to the time slice";
  rows
