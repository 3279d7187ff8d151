(* Cross-layer integration tests: full stacks wired together the way the
   bench harness uses them, exercising interactions no single-module test
   covers. *)

module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Rng = Skyloft_sim.Rng
module Dist = Skyloft_sim.Dist
module Coro = Skyloft_sim.Coro
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Kmod = Skyloft_kernel.Kmod
module Summary = Skyloft_stats.Summary
module Histogram = Skyloft_stats.Histogram
module Percpu = Skyloft.Percpu
module Hybrid = Skyloft.Hybrid
module App = Skyloft.App
module Nic = Skyloft_net.Nic
module Loadgen = Skyloft_net.Loadgen
module Udp_server = Skyloft_apps.Udp_server
module Rc = Skyloft.Runtime_core

let check = Alcotest.check

(* NIC -> RSS -> rings -> work-stealing runtime -> preemption -> summary:
   the whole Figure 8b pipeline at small scale, checking end-to-end
   accounting invariants rather than one layer. *)
let test_full_pipeline_accounting () =
  let engine = Engine.create ~seed:3 () in
  let machine = Machine.create engine Topology.paper_server in
  let kmod = Kmod.create machine in
  let cores = [ 0; 1; 2; 3 ] in
  let rt =
    Percpu.create machine kmod ~cores ~timer_hz:100_000
      (Skyloft_policies.Work_stealing.create ~quantum:(Time.us 5) ())
  in
  let app = Rc.create_app (Percpu.runtime rt) ~name:"kv" in
  let nic = Nic.create engine ~queues:4 () in
  Udp_server.attach rt app nic ~cores;
  let rng = Engine.split_rng engine in
  let offered = ref 0 in
  Loadgen.poisson engine ~rng ~rate_rps:30_000.0
    ~service:Skyloft_apps.Rocksdb.service ~duration:(Time.ms 50) (fun pkt ->
      incr offered;
      Nic.rx nic pkt);
  Engine.run ~until:(Time.ms 120) engine;
  (* conservation: everything offered was received, nothing lost *)
  check Alcotest.int "nic received all" !offered (Nic.received nic);
  check Alcotest.int "nothing dropped" 0 (Nic.drops nic);
  check Alcotest.int "everything served" !offered (Summary.requests app.App.summary);
  (* ~44% load of 4 cores: busy time is bounded by offered work + overheads *)
  check Alcotest.bool "busy time sane" true
    (app.App.busy_ns > 0 && app.App.busy_ns < 4 * Time.ms 120);
  (* preemption fired on the 591us scans *)
  check Alcotest.bool "scans preempted" true (Rc.preemptions (Percpu.runtime rt) > 0);
  (* timer interrupts were delivered through the UINTR path on every core *)
  List.iter
    (fun c ->
      check Alcotest.bool "user interrupts on core" true
        (Machine.user_interrupts_delivered (Machine.core machine c) > 0))
    cores

(* Three applications on one runtime: per-app accounting sums to the
   runtime total, and the kernel module never violates the binding rule
   (it would raise). *)
let test_three_apps_share_cores () =
  let engine = Engine.create ~seed:5 () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:4) in
  let kmod = Kmod.create machine in
  let rt =
    Percpu.runtime
      (Percpu.create machine kmod ~cores:[ 0; 1 ]
         (Skyloft_policies.Rr.create ~slice:(Time.us 25) ()))
  in
  let apps = List.init 3 (fun i -> Rc.create_app rt ~name:(Printf.sprintf "app%d" i)) in
  List.iteri
    (fun i app ->
      for j = 1 to 5 do
        Engine.at engine (Time.us (10 * ((i * 5) + j))) (fun () ->
            ignore
              (Rc.spawn rt app
                 ~name:(Printf.sprintf "t%d-%d" i j)
                 (Coro.compute_then_exit (Time.us 200))))
      done)
    apps;
  Engine.run ~until:(Time.ms 20) engine;
  List.iter
    (fun app ->
      check Alcotest.int (app.App.name ^ " all done") 5 app.App.completed;
      check Alcotest.bool (app.App.name ^ " got cpu") true (app.App.busy_ns > 0))
    apps;
  check Alcotest.bool "cross-app switches happened" true (Rc.app_switches rt > 3);
  let total = List.fold_left (fun acc app -> acc + app.App.busy_ns) 0 apps in
  check Alcotest.bool "per-app busy sums below capacity" true
    (total <= 2 * Time.ms 20)

(* The centralized runtime and the per-CPU runtime coexist on disjoint
   cores of one machine (two independent Skyloft deployments). *)
let test_two_runtimes_one_machine () =
  let engine = Engine.create ~seed:9 () in
  let machine = Machine.create engine Topology.paper_server in
  let kmod = Kmod.create machine in
  let rt1 =
    Percpu.runtime
      (Percpu.create machine kmod ~cores:[ 0; 1 ] (Skyloft_policies.Fifo.create ()))
  in
  let rt2 =
    Hybrid.runtime
      (Hybrid.create machine kmod ~dispatcher_core:2 ~worker_cores:[ 3; 4 ]
         ~quantum:(Time.us 30) ~adaptive:false
         (Skyloft_policies.Fifo.create ()))
  in
  let a1 = Rc.create_app rt1 ~name:"percpu-app" in
  let a2 = Rc.create_app rt2 ~name:"central-app" in
  for _ = 1 to 10 do
    ignore (Rc.spawn rt1 a1 ~name:"p" (Coro.compute_then_exit (Time.us 50)));
    ignore
      (Rc.spawn rt2 a2 ~name:"c" ~service:(Time.us 50)
         (Coro.compute_then_exit (Time.us 50)))
  done;
  Engine.run ~until:(Time.ms 5) engine;
  check Alcotest.int "percpu served" 10 a1.App.completed;
  check Alcotest.int "centralized served" 10 a2.App.completed

(* Determinism across the whole stack: identical seeds give identical
   percentile results for a nontrivial networked run. *)
let test_stack_determinism () =
  let run () =
    let engine = Engine.create ~seed:17 () in
    let machine = Machine.create engine Topology.paper_server in
    let kmod = Kmod.create machine in
    let cores = [ 0; 1 ] in
    let rt =
      Percpu.create machine kmod ~cores ~timer_hz:100_000
        (Skyloft_policies.Work_stealing.create ~quantum:(Time.us 10) ())
    in
    let app = Rc.create_app (Percpu.runtime rt) ~name:"kv" in
    let nic = Nic.create engine ~queues:2 () in
    Udp_server.attach rt app nic ~cores;
    let rng = Engine.split_rng engine in
    Loadgen.poisson engine ~rng ~rate_rps:20_000.0
      ~service:(Dist.Bimodal { p_short = 0.9; short = Time.us 5; long = Time.us 300 })
      ~duration:(Time.ms 30) (fun pkt -> Nic.rx nic pkt);
    Engine.run ~until:(Time.ms 60) engine;
    ( Summary.requests app.App.summary,
      Summary.latency_p app.App.summary 50.0,
      Summary.latency_p app.App.summary 99.9,
      Rc.preemptions (Percpu.runtime rt),
      Engine.events_fired engine )
  in
  check
    (Alcotest.testable
       (fun ppf (a, b, c, d, e) -> Format.fprintf ppf "(%d,%d,%d,%d,%d)" a b c d e)
       ( = ))
    "bit-identical reruns" (run ()) (run ())

let suite =
  [
    Alcotest.test_case "pipeline accounting" `Quick test_full_pipeline_accounting;
    Alcotest.test_case "three apps share cores" `Quick test_three_apps_share_cores;
    Alcotest.test_case "two runtimes, one machine" `Quick test_two_runtimes_one_machine;
    Alcotest.test_case "stack determinism" `Quick test_stack_determinism;
  ]
