(* Tests for the §6 extension features: user-delegated peripheral
   interrupts (MSI NIC), blocking-event handling, and the periodic NIC
   polling mode. *)

module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Rng = Skyloft_sim.Rng
module Dist = Skyloft_sim.Dist
module Coro = Skyloft_sim.Coro
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Vectors = Skyloft_hw.Vectors
module Kmod = Skyloft_kernel.Kmod
module Percpu = Skyloft.Percpu
module Hybrid = Skyloft.Hybrid
module App = Skyloft.App
module Summary = Skyloft_stats.Summary
module Nic = Skyloft_net.Nic
module Packet = Skyloft_net.Packet
module Loadgen = Skyloft_net.Loadgen
module Udp_server = Skyloft_apps.Udp_server
module Rc = Skyloft.Runtime_core

let check = Alcotest.check

(* ---- NIC modes ---- *)

let pkt ~at ~flow = Packet.create ~arrival:at ~service:(Time.us 1) ~flow ~kind:"r"

let test_nic_periodic_mode_batches () =
  let engine = Engine.create () in
  let nic = Nic.create engine ~queues:1 ~mode:(Nic.Periodic (Time.us 10)) () in
  let got = ref [] in
  Nic.on_packet nic ~queue:0 (fun p -> got := (Engine.now engine, p.Packet.flow) :: !got);
  Nic.rx nic (pkt ~at:0 ~flow:1);
  Nic.rx nic (pkt ~at:0 ~flow:2);
  Engine.run ~until:(Time.us 25) engine;
  (* both delivered together at the first poll boundary *)
  match List.rev !got with
  | [ (t1, 1); (t2, 2) ] ->
      check Alcotest.int "first at poll tick" (Time.us 10) t1;
      check Alcotest.int "second same tick" (Time.us 10) t2
  | _ -> Alcotest.fail "expected two batched deliveries"

let make_msi_server () =
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:4) in
  let kmod = Kmod.create machine in
  let cores = [ 0; 1 ] in
  let rt =
    Percpu.create machine kmod ~cores ~preemption:false
      (Skyloft_policies.Work_stealing.create ())
  in
  let app = Rc.create_app (Percpu.runtime rt) ~name:"srv" in
  let nic =
    Nic.create engine ~queues:2 ~mode:(Nic.Msi { machine; cores = [| 0; 1 |] }) ()
  in
  Udp_server.attach_irq rt app nic ~cores;
  (engine, rt, app, nic)

let test_nic_msi_end_to_end () =
  let engine, _, app, nic = make_msi_server () in
  let rng = Rng.create ~seed:2 in
  Loadgen.poisson engine ~rng ~rate_rps:100_000.0 ~service:(Dist.Constant (Time.us 2))
    ~duration:(Time.ms 10) (fun p -> Nic.rx nic p);
  Engine.run ~until:(Time.ms 15) engine;
  check Alcotest.bool "~1000 served over MSI" true (Summary.requests app.App.summary > 800);
  (* MSI delivery latency: ~0.6us + handler; p50 stays a few us *)
  check Alcotest.bool "latency small" true
    (Summary.latency_p app.App.summary 50.0 < Time.us 10)

let test_nic_msi_coalesces () =
  let engine, _, app, nic = make_msi_server () in
  (* burst of 10 packets to the same flow at one instant: one interrupt,
     the driver drains all of them *)
  for _ = 1 to 10 do
    Nic.rx nic (Packet.create ~arrival:0 ~service:(Time.us 1) ~flow:42 ~kind:"r")
  done;
  Engine.run ~until:(Time.ms 1) engine;
  check Alcotest.int "all ten served" 10 (Summary.requests app.App.summary)

(* ---- blocking events (page faults) ---- *)

let test_fault_current_blocks_and_resumes () =
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:4) in
  let kmod = Kmod.create machine in
  let rt =
    Percpu.runtime
      (Percpu.create machine kmod ~cores:[ 0 ] ~preemption:false
         (Skyloft_policies.Fifo.create ()))
  in
  let app = Rc.create_app rt ~name:"a" in
  let faulted_done = ref 0 and other_done = ref 0 in
  ignore
    (Rc.spawn rt app ~name:"faulty"
       (Coro.Compute (Time.us 100, fun () -> faulted_done := Engine.now engine; Coro.Exit)));
  ignore
    (Rc.spawn rt app ~name:"other"
       (Coro.Compute (Time.us 50, fun () -> other_done := Engine.now engine; Coro.Exit)));
  (* fault the running task at t=10us for 200us *)
  Engine.at engine (Time.us 10) (fun () ->
      check Alcotest.bool "fault accepted" true
        (Rc.fault_current rt ~core:0 ~duration:(Time.us 200)));
  Engine.run ~until:(Time.ms 2) engine;
  (* the other task ran during the fault window *)
  check Alcotest.bool "other finished during the fault" true
    (!other_done > 0 && !other_done < Time.us 100);
  (* the faulted task resumed and finished its remaining 90us after 210us *)
  check Alcotest.bool "faulted task completed after resume" true
    (!faulted_done >= Time.us 210 && !faulted_done < Time.us 400)

(* A submitted stage runs as the spawned compute it replaces: on two
   cores under a 30 us quantum, stages (one faulted for 50 us at
   t = 10 us, some preempted, each of the first three followed by a
   second stage its hook places) reach their hooks at the instants and in
   the order the spawned [Compute (service, fun () -> k (); Exit)] tasks
   reach their continuations, and each hook sees its stage's arrival and
   request key. *)
let test_submit_is_spawned_compute () =
  let run submitted =
    let engine = Engine.create () in
    let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:2) in
    let rt =
      Percpu.runtime
        (Percpu.create machine (Kmod.create machine) ~cores:[ 0; 1 ]
           (Skyloft_policies.Work_stealing.create ~quantum:(Time.us 30) ()))
    in
    let app = Rc.create_app rt ~name:"a" in
    let log = ref [] in
    let rec stage i service =
      let follow () =
        log := (i, 100 + i, Engine.now engine) :: !log;
        if i < 3 then stage (i + 3) (Time.us 20)
      in
      if submitted then
        Rc.submit rt app ~name:"s" ~arrival:(100 + i) ~service ~hook i
      else
        ignore
          (Rc.spawn rt app ~name:"s" ~record:false
             (Coro.Compute
                ( service,
                  fun () ->
                    follow ();
                    Coro.Exit )))
    and hook (task : Skyloft.Task.t) =
      let i = task.Skyloft.Task.request in
      log := (i, task.Skyloft.Task.arrival, Engine.now engine) :: !log;
      if i < 3 then stage (i + 3) (Time.us 20)
    in
    List.iteri (fun i service -> stage i (Time.us service)) [ 100; 60; 80; 90; 40 ];
    Engine.at engine (Time.us 10) (fun () ->
        check Alcotest.bool "fault accepted" true
          (Rc.fault_current rt ~core:0 ~duration:(Time.us 50)));
    Engine.run ~until:(Time.ms 2) engine;
    (List.rev !log, Rc.preemptions rt, (Rc.find_app rt app.App.id).App.completed)
  in
  let spawned = run false and submitted = run true in
  let _, preempts, completed = submitted in
  check Alcotest.bool "stages were preempted" true (preempts > 0);
  check Alcotest.int "every stage exited" 8 completed;
  check
    Alcotest.(triple (list (triple int int int)) int int)
    "same hooks, instants and order" spawned submitted

let test_fault_on_idle_core () =
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:2) in
  let kmod = Kmod.create machine in
  let rt =
    Percpu.runtime
      (Percpu.create machine kmod ~cores:[ 0 ] ~preemption:false
         (Skyloft_policies.Fifo.create ()))
  in
  ignore (Rc.create_app rt ~name:"a");
  check Alcotest.bool "no task to fault" false
    (Rc.fault_current rt ~core:0 ~duration:(Time.us 10));
  ignore engine

let test_fault_last_runnable_task () =
  (* Edge case: the faulting task is the only runnable task.  The core must
     go idle for the fault window, then pick the task back up and finish
     it — blocked-with-nothing-else must not wedge the core. *)
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:2) in
  let kmod = Kmod.create machine in
  let rt =
    Percpu.create machine kmod ~cores:[ 0 ] ~preemption:false
      (Skyloft_policies.Fifo.create ())
  in
  let app = Rc.create_app (Percpu.runtime rt) ~name:"a" in
  let done_at = ref 0 in
  ignore
    (Rc.spawn (Percpu.runtime rt) app ~name:"only"
       (Coro.Compute (Time.us 100, fun () -> done_at := Engine.now engine; Coro.Exit)));
  let idle_during_fault = ref false in
  Engine.at engine (Time.us 10) (fun () ->
      check Alcotest.bool "fault accepted" true
        (Rc.fault_current (Percpu.runtime rt) ~core:0 ~duration:(Time.us 300)));
  Engine.at engine (Time.us 150) (fun () ->
      idle_during_fault := Percpu.is_idle rt ~core:0);
  Engine.run ~until:(Time.ms 2) engine;
  check Alcotest.bool "core idled during the fault" true !idle_during_fault;
  (* 10us ran + 300us fault + remaining 90us *)
  check Alcotest.bool "task resumed and completed" true
    (!done_at >= Time.us 400 && !done_at < Time.us 600)

(* Edge case: the fault hits a core inside a BE grant, i.e. the current
   task is a best-effort batch worker.  The blocked BE task must come back
   through the BE queue, not the LC policy's runqueues — so with no LC
   work the LC queue depth never moves — and LC work arriving during the
   fault window runs first.  One row per mechanism: per-CPU dispatch and
   the serial dispatcher (hybrid pinned). *)
let be_fault_runtimes =
  let fifo = Skyloft_policies.Fifo.create in
  [
    ( "percpu",
      0,
      fun machine kmod ->
        Percpu.runtime
          (Percpu.create machine kmod ~cores:[ 0 ] ~preemption:false (fifo ())) );
    ( "pinned hybrid",
      1,
      fun machine kmod ->
        Hybrid.runtime
          (Hybrid.create machine kmod ~dispatcher_core:0 ~worker_cores:[ 1 ]
             ~quantum:0 ~adaptive:false (fifo ())) );
  ]

let test_fault_be_task_stays_out_of_lc_queues () =
  List.iter
    (fun (name, core, build) ->
      let check_row what = check Alcotest.bool (name ^ ": " ^ what) true in
      (* The BE worker owns the worker core at 10us; fault it for 200us,
         and spawn an LC request at 20us when [lc]. *)
      let run ~lc =
        let engine = Engine.create () in
        let machine =
          Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:2)
        in
        let rt = build machine (Kmod.create machine) in
        (* watched before any work, so the series sees every change *)
        let depth = Rc.watch_queue_depth rt in
        let lc_app = Rc.create_app rt ~name:"lc" in
        let be = Rc.create_app rt ~name:"batch" in
        Rc.attach_be_app rt be ~chunk:(Time.us 50) ~workers:1;
        Engine.at engine (Time.us 10) (fun () ->
            check_row "BE task faulted"
              (Rc.fault_current rt ~core ~duration:(Time.us 200)));
        let lc_done = ref 0 in
        if lc then
          Engine.at engine (Time.us 20) (fun () ->
              ignore
                (Rc.spawn rt lc_app ~name:"req"
                   (Coro.Compute
                      (Time.us 30, fun () -> lc_done := Engine.now engine; Coro.Exit))));
        Engine.run ~until:(Time.ms 3) engine;
        (* the BE worker came back and kept accumulating busy time *)
        let busy_at_wake = be.App.busy_ns in
        Engine.run ~until:(Time.ms 4) engine;
        check_row "BE task resumed after the fault" (be.App.busy_ns > busy_at_wake);
        (depth, !lc_done)
      in
      let depth, _ = run ~lc:false in
      check Alcotest.int
        (name ^ ": no LC work, no LC queue-depth change")
        0
        (Skyloft_stats.Timeseries.length depth);
      let _, lc_done = run ~lc:true in
      check_row "LC request completed during the fault"
        (lc_done > 0 && lc_done < Time.us 210))
    be_fault_runtimes

(* ---- register_uvec validation ---- *)

let test_register_uvec_reserved () =
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:2) in
  let kmod = Kmod.create machine in
  let rt = Percpu.create machine kmod ~cores:[ 0 ] (Skyloft_policies.Fifo.create ()) in
  check Alcotest.bool "timer uvec reserved" true
    (try
       Percpu.register_uvec rt ~uvec:Vectors.uvec_timer (fun _ -> ());
       false
     with Invalid_argument _ -> true)

(* ---- start_utimer validation ---- *)

(* The utimer broadcasts preemption user IPIs, but a timer-delegated
   context's notification vector is the timer vector: the runtime must
   refuse rather than post IPIs into it. *)
let test_start_utimer_needs_no_preemption () =
  let make ~preemption =
    let engine = Engine.create () in
    let machine =
      Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:2)
    in
    let kmod = Kmod.create machine in
    let rt =
      Percpu.create machine kmod ~cores:[ 0 ] ~preemption
        (Skyloft_policies.Work_stealing.create ~quantum:(Time.us 5) ())
    in
    (engine, rt)
  in
  let _, delegated = make ~preemption:true in
  check Alcotest.bool "rejected on a timer-delegated runtime" true
    (try
       Percpu.start_utimer delegated ~src_core:1 ~hz:100_000;
       false
     with Invalid_argument _ -> true);
  let engine, plain = make ~preemption:false in
  let app = Rc.create_app (Percpu.runtime plain) ~name:"a" in
  for i = 1 to 2 do
    ignore
      (Rc.spawn (Percpu.runtime plain) app ~name:(Printf.sprintf "t%d" i) ~cpu:0
         (Coro.compute_then_exit (Time.us 100)))
  done;
  Percpu.start_utimer plain ~src_core:1 ~hz:100_000;
  Engine.run ~until:(Time.us 150) engine;
  check Alcotest.bool "utimer IPIs preempt on a plain runtime" true
    (Rc.preemptions (Percpu.runtime plain) > 0)

let suite =
  [
    Alcotest.test_case "nic: periodic batches" `Quick test_nic_periodic_mode_batches;
    Alcotest.test_case "nic: MSI end-to-end" `Quick test_nic_msi_end_to_end;
    Alcotest.test_case "nic: MSI coalescing" `Quick test_nic_msi_coalesces;
    Alcotest.test_case "fault: block and resume" `Quick test_fault_current_blocks_and_resumes;
    Alcotest.test_case "submit: a stage is the spawned compute it replaces" `Quick
      test_submit_is_spawned_compute;
    Alcotest.test_case "fault: idle core" `Quick test_fault_on_idle_core;
    Alcotest.test_case "fault: last runnable task" `Quick test_fault_last_runnable_task;
    Alcotest.test_case "fault: BE task in a BE grant" `Quick
      test_fault_be_task_stays_out_of_lc_queues;
    Alcotest.test_case "uvec: reserved vectors" `Quick test_register_uvec_reserved;
    Alcotest.test_case "utimer: requires preemption off" `Quick
      test_start_utimer_needs_no_preemption;
  ]
