(* Tests for the application layer: runner abstraction, schbench model,
   UDP server plumbing, workload definitions, batch app. *)

module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Rng = Skyloft_sim.Rng
module Dist = Skyloft_sim.Dist
module Coro = Skyloft_sim.Coro
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Kmod = Skyloft_kernel.Kmod
module Linux = Skyloft_kernel.Linux
module Histogram = Skyloft_stats.Histogram
module Summary = Skyloft_stats.Summary
module Percpu = Skyloft.Percpu
module App = Skyloft.App
module Runner = Skyloft_apps.Runner
module Schbench = Skyloft_apps.Schbench
module Udp_server = Skyloft_apps.Udp_server
module Memcached = Skyloft_apps.Memcached
module Rocksdb = Skyloft_apps.Rocksdb
module Batch = Skyloft_apps.Batch
module Nic = Skyloft_net.Nic
module Loadgen = Skyloft_net.Loadgen
module Rc = Skyloft.Runtime_core

let check = Alcotest.check

let make_percpu ?(cores = 4) ?(preemption = true) ctor =
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:8) in
  let kmod = Kmod.create machine in
  let percpu = Percpu.create machine kmod ~cores:(List.init cores Fun.id) ~preemption ctor in
  (engine, percpu, Percpu.runtime percpu)

(* ---- Runner ---- *)

let test_runner_of_linux () =
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:2) in
  let linux = Linux.create machine Linux.cfs_default ~cores:[ 0; 1 ] in
  let runner = Runner.of_linux linux in
  let ran = ref false in
  let h = runner.spawn ~name:"t" (Coro.Compute (Time.us 1, fun () -> ran := true; Coro.Exit)) in
  runner.set_track_wakeup h false;
  Engine.run ~until:(Time.ms 1) engine;
  check Alcotest.bool "linux runner ran" true !ran

let test_runner_of_percpu () =
  let engine, _, rt = make_percpu (Skyloft_policies.Fifo.create ()) in
  let app = Rc.create_app rt ~name:"a" in
  let runner = Runner.of_runtime rt app in
  let woke = ref false in
  let h = runner.spawn ~name:"s" (Coro.Block (fun () -> woke := true; Coro.Exit)) in
  Engine.at engine (Time.us 10) (fun () -> runner.wakeup h);
  Engine.run ~until:(Time.ms 1) engine;
  check Alcotest.bool "percpu runner woke" true !woke;
  check Alcotest.int "wakeup recorded" 1 (Histogram.count (runner.wakeup_hist ()))

(* ---- Schbench ---- *)

let test_schbench_on_percpu () =
  let engine, _, rt = make_percpu ~cores:2 (Skyloft_policies.Rr.create ~slice:(Time.us 50) ()) in
  let app = Rc.create_app rt ~name:"sb" in
  let runner = Runner.of_runtime rt app in
  let h = Schbench.run runner engine ~workers:4 ~duration:(Time.ms 150) in
  (* 2 cores, 2,300us requests, 150ms: ~130 requests, each preceded by a
     wake *)
  check Alcotest.bool "many wakeups recorded" true (Histogram.count h > 100);
  check Alcotest.bool "wakeups are small on this tiny setup" true
    (Histogram.percentile h 50.0 < Time.ms 1)

let test_schbench_on_linux () =
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:4) in
  let linux = Linux.create machine Linux.cfs_default ~cores:[ 0; 1 ] in
  let runner = Runner.of_linux linux in
  let h = Schbench.run runner engine ~workers:4 ~duration:(Time.ms 150) in
  check Alcotest.bool "linux wakeups recorded" true (Histogram.count h > 50)

let test_schbench_oversubscribed_latency_higher () =
  (* More workers than cores must raise the p99 wakeup latency. *)
  let run workers =
    let engine, _, rt =
      make_percpu ~cores:2 (Skyloft_policies.Rr.create ~slice:(Time.us 50) ())
    in
    let app = Rc.create_app rt ~name:"sb" in
    let runner = Runner.of_runtime rt app in
    let h = Schbench.run runner engine ~workers ~duration:(Time.ms 200) in
    Histogram.percentile h 99.0
  in
  let low = run 2 and high = run 8 in
  check Alcotest.bool "oversubscription raises p99" true (high > low)

let test_schbench_invalid_config () =
  let engine, _, rt = make_percpu (Skyloft_policies.Fifo.create ()) in
  let app = Rc.create_app rt ~name:"sb" in
  let runner = Runner.of_runtime rt app in
  check Alcotest.bool "zero workers rejected" true
    (try
       ignore
         (Schbench.run runner engine ~workers:0 ~duration:(Time.ms 1));
       false
     with Invalid_argument _ -> true)

(* ---- UDP server over the NIC ---- *)

let test_udp_server_end_to_end () =
  let engine, percpu, rt = make_percpu ~cores:2 (Skyloft_policies.Work_stealing.create ()) in
  let app = Rc.create_app rt ~name:"kv" in
  let nic = Nic.create engine ~queues:2 () in
  Udp_server.attach percpu app nic ~cores:[ 0; 1 ];
  let rng = Rng.create ~seed:9 in
  Loadgen.poisson engine ~rng ~rate_rps:50_000.0 ~service:(Dist.Constant (Time.us 5))
    ~duration:(Time.ms 20) (fun pkt -> Nic.rx nic pkt);
  Engine.run ~until:(Time.ms 30) engine;
  check Alcotest.bool "served ~1000 requests" true (Summary.requests app.App.summary > 800);
  check Alcotest.int "nothing dropped" 0 (Nic.drops nic);
  (* latency includes poll cost + queueing: at 25% load it stays tiny *)
  check Alcotest.bool "p99 small at low load" true
    (Summary.latency_p app.App.summary 99.0 < Time.us 50)

let test_udp_server_queue_mismatch () =
  let _, percpu, rt = make_percpu ~cores:2 (Skyloft_policies.Work_stealing.create ()) in
  let app = Rc.create_app rt ~name:"kv" in
  let engine = Engine.create () in
  let nic = Nic.create engine ~queues:3 () in
  check Alcotest.bool "queue/core mismatch rejected" true
    (try
       Udp_server.attach percpu app nic ~cores:[ 0; 1 ];
       false
     with Invalid_argument _ -> true)

(* ---- workload definitions ---- *)

(* The share of draws at the short (GET) service time. *)
let short_fraction (service : Dist.t) =
  match service with
  | Dist.Bimodal { short; _ } ->
      let rng = Rng.create ~seed:4 in
      let gets = ref 0 and n = 10_000 in
      for _ = 1 to n do
        if Dist.sample service rng = short then incr gets
      done;
      float_of_int !gets /. float_of_int n
  | _ -> Alcotest.fail "expected a bimodal service mix"

let test_memcached_mix () =
  let frac = short_fraction Memcached.service in
  check Alcotest.bool "USR: ~99.8% GETs" true (frac > 0.99);
  check Alcotest.bool "saturation sensible" true
    (Memcached.saturation_rps ~cores:4 > 500_000.)

let test_rocksdb_mix () =
  let frac = short_fraction Rocksdb.service in
  check Alcotest.bool "bimodal: ~50% GETs" true (frac > 0.45 && frac < 0.55);
  (* paper's mean: (0.95us + 591us)/2 *)
  check Alcotest.bool "mean service ~296us" true
    (abs_float (Dist.mean Rocksdb.service -. 295_975.) < 100.)

let test_batch_soaks_idle_cores () =
  let engine, _, rt = make_percpu ~cores:2 (Skyloft_policies.Fifo.create ()) in
  let app = Rc.create_app rt ~name:"batch" in
  Batch.spawn_workers rt app ~workers:2 ~chunk:(Time.us 100);
  Engine.run ~until:(Time.ms 10) engine;
  let share = App.cpu_share app ~total_ns:(2 * Time.ms 10) in
  check Alcotest.bool "batch uses nearly all idle CPU" true (share > 0.9)

let suite =
  [
    Alcotest.test_case "runner: linux" `Quick test_runner_of_linux;
    Alcotest.test_case "runner: percpu" `Quick test_runner_of_percpu;
    Alcotest.test_case "schbench: percpu" `Quick test_schbench_on_percpu;
    Alcotest.test_case "schbench: linux" `Quick test_schbench_on_linux;
    Alcotest.test_case "schbench: oversubscription" `Quick
      test_schbench_oversubscribed_latency_higher;
    Alcotest.test_case "schbench: invalid config" `Quick test_schbench_invalid_config;
    Alcotest.test_case "udp server: end to end" `Quick test_udp_server_end_to_end;
    Alcotest.test_case "udp server: mismatch" `Quick test_udp_server_queue_mismatch;
    Alcotest.test_case "memcached: USR mix" `Quick test_memcached_mix;
    Alcotest.test_case "rocksdb: bimodal mix" `Quick test_rocksdb_mix;
    Alcotest.test_case "batch: soaks idle" `Quick test_batch_soaks_idle_cores;
  ]
