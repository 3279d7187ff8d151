(* Tracing the scheduler: run a mixed workload with two applications under
   preemptive work stealing, record every run span and scheduling event,
   and export a Chrome trace (open chrome://tracing or https://ui.perfetto.dev
   and load the JSON).  A second trace captures the hybrid runtime under a
   burst, where the mode handovers show up as "mode-switch" instants.

     dune exec examples/trace_scheduling.exe *)

module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Coro = Skyloft_sim.Coro
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Kmod = Skyloft_kernel.Kmod
module Percpu = Skyloft.Percpu
module App = Skyloft.App
module Trace = Skyloft_stats.Trace
module Batch = Skyloft_apps.Batch
module Rc = Skyloft.Runtime_core

let () =
  let engine = Engine.create ~seed:21 () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:2) in
  let kmod = Kmod.create machine in
  let rt =
    Percpu.runtime
      (Percpu.create machine kmod ~cores:[ 0; 1 ] ~timer_hz:100_000
         (Skyloft_policies.Work_stealing.create ~quantum:(Time.us 20) ()))
  in
  let trace = Trace.create () in
  Rc.set_trace rt trace;

  (* Two applications sharing the cores: an LC service and a batch app. *)
  let lc = Rc.create_app rt ~name:"service" in
  let batch = Rc.create_app rt ~name:"batch" in
  Batch.spawn_workers rt batch ~workers:2 ~chunk:(Time.us 40);
  for i = 1 to 20 do
    Engine.at engine (Time.us (37 * i)) (fun () ->
        ignore
          (Rc.spawn rt lc
             ~name:(Printf.sprintf "req-%d" i)
             ~service:(Time.us 15)
             (Coro.compute_then_exit (Time.us 15))))
  done;
  Engine.run ~until:(Time.ms 1) engine;

  let path = Filename.concat (Filename.get_temp_dir_name ()) "skyloft_trace.json" in
  Trace.write_chrome_json trace ~path;
  Printf.printf "traced %d events (%d dropped) over %s of virtual time\n"
    (Trace.events trace) (Trace.dropped trace)
    (Format.asprintf "%a" Time.pp (Engine.now engine));
  Printf.printf "requests served: %d   preemptions: %d   app switches: %d\n"
    lc.App.completed (Rc.preemptions rt) (Rc.app_switches rt);
  Printf.printf "wrote %s — load it in chrome://tracing or ui.perfetto.dev\n" path;
  Printf.printf
    "=> rows are cores; spans show req-* slotting between batch chunks via\n";
  Printf.printf "   20us quantum preemption and cross-app kthread switches\n";

  (* Second trace: the hybrid runtime under a burst.  The monitor's mode
     handovers — dispatcher to per-core timers and back — land in the
     trace as "mode-switch" instants on the dispatcher core. *)
  let engine = Engine.create ~seed:21 () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:4) in
  let kmod = Kmod.create machine in
  let hybrid =
    Skyloft.Hybrid.create machine kmod ~dispatcher_core:0 ~worker_cores:[ 1; 2; 3 ]
      ~quantum:(Time.us 20)
      (Skyloft_policies.Fifo.create ())
  in
  let rt = Skyloft.Hybrid.runtime hybrid in
  let trace = Trace.create () in
  Rc.set_trace rt trace;
  let lc = Rc.create_app rt ~name:"service" in
  for i = 1 to 20 do
    Engine.at engine (Time.us (37 * i)) (fun () ->
        ignore
          (Rc.spawn rt lc
             ~name:(Printf.sprintf "req-%d" i)
             ~service:(Time.us 15)
             (Coro.compute_then_exit (Time.us 15))))
  done;
  Engine.at engine (Time.us 300) (fun () ->
      for i = 1 to 16 do
        ignore
          (Rc.spawn rt lc
             ~name:(Printf.sprintf "burst-%d" i)
             ~service:(Time.us 30)
             (Coro.compute_then_exit (Time.us 30)))
      done);
  Engine.run ~until:(Time.ms 1) engine;
  let mode_instants =
    Trace.fold trace
      (fun acc ev ->
        match ev with
        | Trace.Instant { kind = Trace.Mode_switch; _ } -> acc + 1
        | _ -> acc)
      0
  in
  let path = Filename.concat (Filename.get_temp_dir_name ()) "skyloft_hybrid_trace.json" in
  Trace.write_chrome_json trace ~path;
  Printf.printf "\nhybrid: %d requests, %d mode switches (%d instants in the trace)\n"
    lc.App.completed
    (Skyloft.Hybrid.mode_switches hybrid)
    mode_instants;
  Printf.printf "wrote %s\n" path;
  Printf.printf
    "=> find the mode-switch instants on core 0: dispatch spans before,\n";
  Printf.printf "   timer-tick preemption spans after, until the burst drains\n"
