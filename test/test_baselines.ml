(* Tests for the baseline system models: Linux-CFS pool server, Shenango,
   ghOSt, original Shinjuku. *)

module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Dist = Skyloft_sim.Dist
module Coro = Skyloft_sim.Coro
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Costs = Skyloft_hw.Costs
module Kmod = Skyloft_kernel.Kmod
module Summary = Skyloft_stats.Summary
module App = Skyloft.App
module Hybrid = Skyloft.Hybrid
module Percpu = Skyloft.Percpu
module Linux_workload = Skyloft_baselines.Linux_workload
module Shenango = Skyloft_baselines.Shenango
module Rc = Skyloft.Runtime_core

let check = Alcotest.check

let test_linux_workload_serves () =
  let engine = Engine.create ~seed:1 () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:4) in
  let rng = Engine.split_rng engine in
  let t =
    Linux_workload.run machine ~cores:[ 0; 1; 2; 3 ] ~rng ~rate_rps:50_000.0
      ~service:(Dist.Constant (Time.us 20)) ~duration:(Time.ms 50) ()
  in
  (* 50 krps x 50ms = ~2500 requests at 25% load: all served *)
  check Alcotest.bool "served most requests" true
    (Linux_workload.served t > (Linux_workload.offered t * 9 / 10));
  check Alcotest.bool "latency sane" true
    (Summary.latency_p (Linux_workload.summary t) 50.0 < Time.ms 1)

let test_linux_workload_batch_share () =
  let engine = Engine.create ~seed:1 () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:4) in
  let rng = Engine.split_rng engine in
  let t =
    Linux_workload.run machine ~cores:[ 0; 1; 2; 3 ] ~rng ~rate_rps:10_000.0
      ~service:(Dist.Constant (Time.us 20)) ~duration:(Time.ms 50) ~batch_threads:4 ()
  in
  (* 5% LC load: batch should soak most of the 4 cores *)
  let share =
    float_of_int (Linux_workload.batch_busy_ns t) /. float_of_int (4 * Time.ms 50)
  in
  check Alcotest.bool "batch soaks idle CPU under CFS" true (share > 0.5)

let test_shenango_parks_and_resumes () =
  let engine = Engine.create ~seed:1 () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:4) in
  let kmod = Kmod.create machine in
  let rt = Percpu.runtime (Shenango.make machine kmod ~cores:[ 0; 1 ]) in
  let app = Rc.create_app rt ~name:"a" in
  let first_done = ref 0 in
  ignore
    (Rc.spawn rt app ~name:"t1"
       (Coro.Compute (Time.us 10, fun () -> first_done := Engine.now engine; Coro.Exit)));
  Engine.run ~until:(Time.ms 1) engine;
  (* after >5us idle the cores park; the next task pays the resume cost *)
  let second_done = ref 0 in
  Engine.at engine (Time.ms 1) (fun () ->
      ignore
        (Rc.spawn rt app ~name:"t2"
           (Coro.Compute
              (Time.us 10, fun () -> second_done := Engine.now engine; Coro.Exit))));
  Engine.run ~until:(Time.ms 2) engine;
  let first_latency = !first_done and second_latency = !second_done - Time.ms 1 in
  (* The first dispatch pays the one-off application switch (1,905 ns); the
     second pays the unpark cost (~3.5 us), which must dominate. *)
  check Alcotest.bool "parked resume is slower" true
    (second_latency > first_latency + Time.us 1)

let test_shenango_no_preemption () =
  let engine = Engine.create ~seed:1 () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:4) in
  let kmod = Kmod.create machine in
  let rt = Percpu.runtime (Shenango.make machine kmod ~cores:[ 0 ]) in
  let app = Rc.create_app rt ~name:"a" in
  ignore (Rc.spawn rt app ~name:"scan" (Coro.compute_then_exit (Time.us 591)));
  ignore (Rc.spawn rt app ~name:"get" (Coro.compute_then_exit (Time.ns 950)));
  Engine.run ~until:(Time.ms 2) engine;
  check Alcotest.int "no preemptions ever" 0 (Rc.preemptions rt)

(* Shenango is steal-one work stealing with parking.  An idle core parks
   only once the grace period has passed, however many scans fail in a
   row: there is no steal-storm brake.  A stolen task pays no migration
   charge either.  Each doomed spawn below is killed before its kick
   fires, so the kicked core's scan finds nothing; under the steal-half
   policy the same sequence trips the brake and parks at once. *)
let test_shenango_parks_after_grace () =
  let failed_scans make =
    let engine = Engine.create ~seed:1 () in
    let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:4) in
    let kmod = Kmod.create machine in
    let rt = make machine kmod in
    let app = Rc.create_app (Percpu.runtime rt) ~name:"a" in
    for i = 0 to 2 do
      Engine.at engine (Time.us i) (fun () ->
          Rc.kill (Percpu.runtime rt)
            (Rc.spawn (Percpu.runtime rt) app ~name:"doomed" ~cpu:0
               (Coro.compute_then_exit (Time.us 1))))
    done;
    Engine.run ~until:(Time.us 4) engine;
    let early = Percpu.parks rt in
    Engine.run ~until:(Time.us 20) engine;
    (early, Percpu.parks rt)
  in
  let early, late = failed_scans (fun m k -> Shenango.make m k ~cores:[ 0 ]) in
  check Alcotest.int "no park inside the grace period" 0 early;
  check Alcotest.int "parked once the grace period passed" 1 late;
  let early, _ =
    failed_scans (fun m k ->
        Percpu.create m k ~cores:[ 0 ] ~preemption:false
          ~park:Skyloft_policies.Work_stealing.park
          (fst (Skyloft_policies.Work_stealing.steal_half ())))
  in
  check Alcotest.int "steal-half parks at once" 1 early;
  (* a task stolen onto an idle core starts as fast as a local one *)
  let engine = Engine.create ~seed:1 () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:4) in
  let kmod = Kmod.create machine in
  let rt = Shenango.make machine kmod ~cores:[ 0; 1 ] in
  let app = Rc.create_app (Percpu.runtime rt) ~name:"a" in
  let spawn ~at ~service finished =
    Engine.at engine at (fun () ->
        ignore
          (Rc.spawn (Percpu.runtime rt) app ~name:"t" ~cpu:0
             (Coro.Compute (service, fun () -> finished := Engine.now engine; Coro.Exit))))
  in
  let local = ref 0 and stolen = ref 0 in
  spawn ~at:0 ~service:(Time.us 100) local;
  spawn ~at:(Time.us 1) ~service:(Time.us 10) stolen;
  Engine.run ~until:(Time.ms 1) engine;
  check Alcotest.bool "the second task was stolen" true (!stolen < !local);
  (* each task's first dispatch on its core pays the app switch, nothing
     more *)
  check Alcotest.int "local dispatch pays the app switch" Costs.app_switch_ns
    (!local - Time.us 100);
  check Alcotest.int "no migration charge on the stolen dispatch"
    Costs.app_switch_ns
    (!stolen - Time.us 11)

let test_ghost_slower_than_skyloft () =
  (* Same workload through both mechanisms: ghOSt's dispatcher and switch
     costs must show up as higher tail latency. *)
  let run mechanism =
    let engine = Engine.create ~seed:1 () in
    let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:8) in
    let kmod = Kmod.create machine in
    let rt =
      Hybrid.runtime
        (Hybrid.create machine kmod ~dispatcher_core:0 ~worker_cores:[ 1; 2 ]
           ~quantum:(Time.us 30) ~adaptive:false ~mechanism
           (Skyloft_policies.Fifo.create ()))
    in
    let app = Rc.create_app rt ~name:"lc" in
    for _ = 1 to 200 do
      ignore
        (Rc.spawn rt app ~name:"r" ~service:(Time.us 10)
           (Coro.compute_then_exit (Time.us 10)))
    done;
    Engine.run ~until:(Time.ms 10) engine;
    Summary.latency_p app.App.summary 99.0
  in
  let sky = run Hybrid.skyloft_mechanism in
  let ghost = run Hybrid.ghost_mechanism in
  check Alcotest.bool "ghOSt p99 > Skyloft p99" true (ghost > sky)

(* Original Shinjuku as fig7 runs it: the pinned serial dispatcher with
   Shinjuku's posted-interrupt preemption costs. *)
let test_shinjuku_orig_single_app () =
  let engine = Engine.create ~seed:1 () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:8) in
  let kmod = Kmod.create machine in
  let rt =
    Hybrid.create machine kmod ~dispatcher_core:0 ~worker_cores:[ 1; 2 ]
      ~quantum:(Time.us 30) ~adaptive:false ~mechanism:Hybrid.shinjuku_mechanism
      (Skyloft_policies.Fifo.create ())
  in
  let app = Rc.create_app (Hybrid.runtime rt) ~name:"lc" in
  let done_ = ref 0 in
  for _ = 1 to 10 do
    ignore
      (Rc.spawn (Hybrid.runtime rt) app ~name:"r" ~service:(Time.us 10)
         (Coro.Compute (Time.us 10, fun () -> incr done_; Coro.Exit)))
  done;
  Engine.run ~until:(Time.ms 1) engine;
  check Alcotest.int "requests served" 10 !done_

let suite =
  [
    Alcotest.test_case "linux workload: serves" `Quick test_linux_workload_serves;
    Alcotest.test_case "linux workload: batch share" `Quick test_linux_workload_batch_share;
    Alcotest.test_case "shenango: park/resume cost" `Quick test_shenango_parks_and_resumes;
    Alcotest.test_case "shenango: never preempts" `Quick test_shenango_no_preemption;
    Alcotest.test_case "shenango: parks after grace, no storm brake" `Quick
      test_shenango_parks_after_grace;
    Alcotest.test_case "ghost: costlier than skyloft" `Quick test_ghost_slower_than_skyloft;
    Alcotest.test_case "shinjuku orig: single app" `Quick test_shinjuku_orig_single_app;
  ]
