(* Quickstart: build a simulated machine, start the Skyloft per-CPU runtime
   with the Round-Robin policy and user-space timer preemption, run a mixed
   workload, and look at what happened.  Part two runs a burst through the
   hybrid runtime and watches it switch dispatch modes under load.

     dune exec examples/quickstart.exe *)

module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Coro = Skyloft_sim.Coro
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Kmod = Skyloft_kernel.Kmod
module Percpu = Skyloft.Percpu
module Hybrid = Skyloft.Hybrid
module Rc = Skyloft.Runtime_core
module App = Skyloft.App
module Histogram = Skyloft_stats.Histogram

let () =
  (* 1. A machine: one socket, four isolated cores, virtual time. *)
  let engine = Engine.create ~seed:7 () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:4) in
  let kmod = Kmod.create machine in

  (* 2. The Skyloft runtime: per-CPU scheduling loops on all four cores,
     LAPIC timers delegated to user space at 100 kHz (the §3.2 trick),
     Round-Robin with a 50 us slice.  [rt] is the runtime handle every
     runtime shares: spawn, wakeup, kill, counters, metrics. *)
  let rt =
    Percpu.runtime
      (Percpu.create machine kmod ~cores:[ 0; 1; 2; 3 ] ~timer_hz:100_000
         (Skyloft_policies.Rr.create ~slice:(Time.us 50) ()))
  in
  let app = Rc.create_app rt ~name:"quickstart" in

  (* 3. A workload: one CPU hog per core plus a burst of short requests.
     Preemption keeps the shorts from waiting behind the hogs. *)
  for i = 1 to 4 do
    ignore
      (Rc.spawn rt app
         ~name:(Printf.sprintf "hog-%d" i)
         ~service:(Time.ms 2)
         (Coro.compute_then_exit (Time.ms 2)))
  done;
  let short_latencies = Histogram.create () in
  for i = 1 to 40 do
    let arrival = Time.us (100 * i) in
    Engine.at engine arrival (fun () ->
        ignore
          (Rc.spawn rt app
             ~name:(Printf.sprintf "short-%d" i)
             ~service:(Time.us 10) ~record:false
             (Coro.Compute
                ( Time.us 10,
                  fun () ->
                    Histogram.record short_latencies (Engine.now engine - arrival);
                    Coro.Exit ))))
  done;

  (* 4. Run the virtual clock. *)
  Engine.run ~until:(Time.ms 20) engine;

  Printf.printf "ran %d tasks on 4 cores in %s of virtual time\n"
    app.App.completed
    (Format.asprintf "%a" Time.pp (Engine.now engine));
  Printf.printf "timer ticks handled in user space: %d\n" (Rc.timer_ticks rt);
  Printf.printf "preemptions: %d   task switches: %d\n" (Rc.preemptions rt)
    (Rc.task_switches rt);
  Printf.printf "short-request latency: p50=%s p99=%s (hogs are 2ms each!)\n"
    (Format.asprintf "%a" Time.pp (Histogram.percentile short_latencies 50.0))
    (Format.asprintf "%a" Time.pp (Histogram.percentile short_latencies 99.0));
  Printf.printf
    "=> without the 50us time slice every short would have waited ~2ms\n";

  (* 5. The hybrid runtime on a fresh machine: centralized dispatch while
     the shared queue is shallow (best low-load tail), per-CPU preemption
     timers once it deepens (no serial-dispatcher ceiling).  A quiet
     trickle keeps it in Central mode; a mid-run burst pushes the queue
     past the threshold and the monitor hands the cores over — then back
     once the burst drains. *)
  let engine = Engine.create ~seed:7 () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:4) in
  let kmod = Kmod.create machine in
  let hybrid =
    Hybrid.create machine kmod ~dispatcher_core:0 ~worker_cores:[ 1; 2; 3 ]
      ~quantum:(Time.us 30)
      (Skyloft_policies.Fifo.create ())
  in
  let rt = Hybrid.runtime hybrid in
  let app = Rc.create_app rt ~name:"quickstart-hybrid" in
  for i = 1 to 30 do
    Engine.at engine (Time.us (100 * i)) (fun () ->
        ignore
          (Rc.spawn rt app
             ~name:(Printf.sprintf "trickle-%d" i)
             ~service:(Time.us 10)
             (Coro.compute_then_exit (Time.us 10))))
  done;
  Engine.at engine (Time.ms 1) (fun () ->
      for i = 1 to 24 do
        ignore
          (Rc.spawn rt app
             ~name:(Printf.sprintf "burst-%d" i)
             ~service:(Time.us 40)
             (Coro.compute_then_exit (Time.us 40)))
      done);
  Engine.run ~until:(Time.ms 5) engine;
  Printf.printf "\nhybrid runtime: %d requests, %d dispatcher assignments,\n"
    app.App.completed
    (Hybrid.dispatches hybrid);
  Printf.printf "%d timer ticks, %d mode switches (ends in %s mode)\n"
    (Rc.timer_ticks rt) (Hybrid.mode_switches hybrid)
    (match Hybrid.mode hybrid with
    | Hybrid.Central -> "central"
    | Hybrid.Percore -> "percore");
  Printf.printf
    "=> the burst crossed the depth threshold: per-core timers took over,\n";
  Printf.printf "   then the dispatcher got the cores back as the queue drained\n"
