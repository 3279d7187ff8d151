(* Fault injection (lib/fault) and the recovery machinery it exercises:
   the machine-level interrupt fate hook, host-kernel core steals,
   client-side retry, per-core watchdogs, deadline kills, dispatcher
   failover, allocator degradation, and NIC loss — ending with the
   fault-sweep reconciliation invariant (no task is ever silently lost). *)

open Alcotest
module Engine = Skyloft_sim.Engine
module Time = Skyloft_sim.Time
module Rng = Skyloft_sim.Rng
module Coro = Skyloft_sim.Coro
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Vectors = Skyloft_hw.Vectors
module Kmod = Skyloft_kernel.Kmod
module Packet = Skyloft_net.Packet
module Nic = Skyloft_net.Nic
module Loadgen = Skyloft_net.Loadgen
module App = Skyloft.App
module Percpu = Skyloft.Percpu
module Hybrid = Skyloft.Hybrid
module Summary = Skyloft_stats.Summary
module Histogram = Skyloft_stats.Histogram
module Allocator = Skyloft_alloc.Allocator
module Alloc_policy = Skyloft_alloc.Policy
module Plan = Skyloft_fault.Plan
module Injector = Skyloft_fault.Injector
module E = Skyloft_experiments
module Rc = Skyloft.Runtime_core

(* ---- machine-level interrupt fate hook ---- *)

let test_machine_fault_hook () =
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:2) in
  check bool "default fate is Deliver" true
    (Machine.fault_fate machine ~core:0 Vectors.uintr_notification = Machine.Deliver);
  Machine.set_fault_hook machine (fun ~core vector ->
      if core = 1 && vector = Vectors.uintr_notification then Machine.Drop
      else if vector = Vectors.timer then Machine.Delay (Time.us 7)
      else Machine.Deliver);
  check bool "hook drops the targeted vector on the targeted core" true
    (Machine.fault_fate machine ~core:1 Vectors.uintr_notification = Machine.Drop);
  check bool "other cores unaffected" true
    (Machine.fault_fate machine ~core:0 Vectors.uintr_notification = Machine.Deliver);
  check bool "hook can delay" true
    (Machine.fault_fate machine ~core:0 Vectors.timer = Machine.Delay (Time.us 7))

(* ---- host-kernel core steal (Kmod) ---- *)

let test_kmod_steal () =
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:2) in
  let kmod = Kmod.create machine in
  check int "no steal yet" 0 (Kmod.stolen_until kmod ~core:0);
  let reacted = ref [] in
  Kmod.on_steal kmod ~core:0 (fun ~duration -> reacted := duration :: !reacted);
  Kmod.steal_core kmod ~core:0 ~duration:(Time.us 100);
  check int "stolen until steal end" (Time.us 100) (Kmod.stolen_until kmod ~core:0);
  check (list int) "runtime reaction fired with the duration" [ Time.us 100 ] !reacted;
  (* overlapping steal extends the outage *)
  Engine.at engine (Time.us 50) (fun () ->
      Kmod.steal_core kmod ~core:0 ~duration:(Time.us 100));
  Engine.at engine (Time.us 60) (fun () ->
      check int "overlap extends, not restarts" (Time.us 150)
        (Kmod.stolen_until kmod ~core:0));
  Engine.at engine (Time.us 120) (fun () ->
      check bool "first steal's expiry keeps the core masked" true
        (Machine.interrupts_masked (Machine.core machine 0)));
  Engine.at engine (Time.us 200) (fun () ->
      check bool "steal over" true (Kmod.stolen_until kmod ~core:0 <= Engine.now engine);
      check bool "core handed back" false
        (Machine.interrupts_masked (Machine.core machine 0)));
  Engine.run engine;
  check int "both steals counted" 2 (Kmod.steals kmod)

(* ---- client-side retry with backoff (Loadgen.retrying) ---- *)

let test_retrying_succeeds_after_retry () =
  let engine = Engine.create () in
  let tries = ref [] in
  let gave_up = ref false in
  Loadgen.retrying engine ~budget:3 ~backoff:(Time.us 100)
    ~attempt:(fun k done_ ->
      tries := (k, Engine.now engine) :: !tries;
      done_ (k = 1))
    (fun () -> gave_up := true);
  Engine.run engine;
  check (list (pair int int)) "try 0 at t=0, try 1 after one backoff"
    [ (0, 0); (1, Time.us 100) ]
    (List.rev !tries);
  check bool "no give-up on success" false !gave_up

let test_retrying_gives_up_with_exponential_backoff () =
  let engine = Engine.create () in
  let tries = ref [] in
  let gave_up_at = ref (-1) in
  Loadgen.retrying engine ~budget:3 ~backoff:(Time.us 100)
    ~attempt:(fun k done_ ->
      tries := (k, Engine.now engine) :: !tries;
      done_ false)
    (fun () -> gave_up_at := Engine.now engine);
  Engine.run engine;
  (* backoff doubles: 100us after try 0, 200us after try 1 *)
  check (list (pair int int)) "exponential backoff between tries"
    [ (0, 0); (1, Time.us 100); (2, Time.us 300) ]
    (List.rev !tries);
  check int "give-up after the last failed try" (Time.us 300) !gave_up_at

let test_retrying_backoff_ceiling () =
  let engine = Engine.create () in
  let tries = ref [] in
  Loadgen.retrying engine ~budget:10 ~backoff:(Time.us 100)
    ~attempt:(fun k done_ ->
      tries := (k, Engine.now engine) :: !tries;
      done_ false)
    (fun () -> ());
  Engine.run engine;
  (* doubles 100us -> 6.4ms, then the 10ms ceiling holds every later wait *)
  check (list (pair int int)) "backoff saturates at the ceiling"
    [
      (0, 0);
      (1, Time.us 100);
      (2, Time.us 300);
      (3, Time.us 700);
      (4, Time.us 1500);
      (5, Time.us 3100);
      (6, Time.us 6300);
      (7, Time.us 12700);
      (8, Time.us 22700);
      (9, Time.us 32700);
    ]
    (List.rev !tries);
  let tries = ref [] in
  Loadgen.retrying engine ~budget:2 ~backoff:(Time.ms 20)
    ~attempt:(fun k done_ ->
      tries := (k, Engine.now engine) :: !tries;
      done_ false)
    (fun () -> ());
  let start = Engine.now engine in
  Engine.run engine;
  check (list (pair int int)) "a base above the ceiling waits the ceiling"
    [ (0, start); (1, start + Time.ms 10) ]
    (List.rev !tries)

let test_retrying_done_idempotent () =
  let engine = Engine.create () in
  let outcomes = ref 0 in
  Loadgen.retrying engine ~budget:2 ~backoff:(Time.us 10)
    ~attempt:(fun _ done_ ->
      done_ true;
      (* a buggy server calling back twice must not double-count *)
      done_ false)
    (fun () -> incr outcomes);
  Engine.run engine;
  check int "late done_ calls ignored" 0 !outcomes

(* ---- fault plans ---- *)

let test_plan_validation () =
  check_raises "ipi_loss with no probability"
    (Invalid_argument "Plan.ipi_loss: at least one probability must be non-zero")
    (fun () -> ignore (Plan.ipi_loss ()));
  check_raises "packet_loss out of range"
    (Invalid_argument "Plan.packet_loss: probability outside [0, 1]") (fun () ->
      ignore (Plan.packet_loss ~p_drop:1.5 ()));
  check_raises "core_steal with zero period"
    (Invalid_argument "Plan.core_steal: period must be positive") (fun () ->
      ignore (Plan.core_steal ~period:0 ~duration:(Time.us 10) ()));
  check_raises "tenant plan with a negative tenant"
    (Invalid_argument "Plan.tenant_hoard: tenant must be >= 0") (fun () ->
      ignore (Plan.tenant_hoard ~tenant:(-1) ()));
  let w = Plan.window ~start:(Time.us 10) ~stop:(Time.us 20) () in
  check bool "window active inside" true (Plan.active w ~at:(Time.us 15));
  check bool "window half-open at stop" false (Plan.active w ~at:(Time.us 20))

(* Degenerate windows are rejected at construction, not discovered later
   as a plan that silently never fires (or always fires). *)
let test_window_validation () =
  check_raises "empty window (stop = start)"
    (Invalid_argument "Plan.window: stop must be after start") (fun () ->
      ignore (Plan.window ~start:(Time.us 10) ~stop:(Time.us 10) ()));
  check_raises "inverted window (stop < start)"
    (Invalid_argument "Plan.window: stop must be after start") (fun () ->
      ignore (Plan.window ~start:(Time.us 10) ~stop:(Time.us 5) ()));
  check_raises "negative start"
    (Invalid_argument "Plan.window: start must be >= 0") (fun () ->
      ignore (Plan.window ~start:(-1) ()));
  check_raises "stop before time zero"
    (Invalid_argument "Plan.window: stop must be after start") (fun () ->
      ignore (Plan.window ~stop:0 ()));
  (* the open-ended and instantaneous-start forms remain legal *)
  let w = Plan.window () in
  check bool "default window is always" true (Plan.active w ~at:0);
  check bool "default window never ends" true (Plan.active w ~at:max_int);
  let w1 = Plan.window ~stop:1 () in
  check bool "one-tick window active at 0" true (Plan.active w1 ~at:0);
  check bool "one-tick window over at 1" false (Plan.active w1 ~at:1)

(* ---- injector: IPI drops reach the machine hook ---- *)

let test_injector_ipi_drop () =
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:2) in
  let rng = Rng.create ~seed:11 in
  let inj = Injector.create ~engine ~rng () in
  let target =
    { Injector.machine; kmod = None; nic = None; cores = [ 0 ]; poison = None }
  in
  Injector.arm inj target [ Plan.ipi_loss ~p_drop:1.0 () ];
  check bool "notification IPI to a targeted core drops" true
    (Machine.fault_fate machine ~core:0 Vectors.uintr_notification = Machine.Drop);
  check bool "untargeted core delivers" true
    (Machine.fault_fate machine ~core:1 Vectors.uintr_notification = Machine.Deliver);
  check bool "unrelated vectors deliver" true
    (Machine.fault_fate machine ~core:0 0xfd (* a kernel reschedule IPI *) = Machine.Deliver);
  check int "every drop recorded" 1 (Injector.injected_of inj ~kind:"ipi-drop");
  check_raises "double arm rejected" (Invalid_argument "Injector.arm: already armed")
    (fun () -> Injector.arm inj target [])

(* The machine has one fault hook, so a second IPI-loss plan would be
   ignored: it is rejected before anything is armed, and the injector can
   still be armed afterwards. *)
let test_injector_second_ipi_loss () =
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:2) in
  let inj = Injector.create ~engine ~rng:(Rng.create ~seed:11) () in
  let target =
    { Injector.machine; kmod = None; nic = None; cores = [ 0 ]; poison = None }
  in
  check_raises "second IPI-loss plan rejected"
    (Invalid_argument "Injector.arm: at most one IPI-loss plan") (fun () ->
      Injector.arm inj target
        [ Plan.ipi_loss ~p_drop:1.0 (); Plan.ipi_loss ~p_delay:1.0 () ]);
  check bool "no hook installed" true
    (Machine.fault_fate machine ~core:0 Vectors.uintr_notification = Machine.Deliver);
  check int "nothing scheduled" 0 (Engine.pending engine);
  Injector.arm inj target [ Plan.ipi_loss ~p_drop:1.0 () ];
  check bool "a later single plan arms" true
    (Machine.fault_fate machine ~core:0 Vectors.uintr_notification = Machine.Drop)

(* A plan whose target component is missing is rejected before the
   plans ahead of it take effect: no fault hook, no loss filter and no
   periodic timer survive the rejection, and the same injector then arms
   a valid list. *)
let test_injector_rejects_before_side_effects () =
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:2) in
  let kmod = Kmod.create machine in
  let inj = Injector.create ~engine ~rng:(Rng.create ~seed:11) () in
  let target ?kmod () =
    { Injector.machine; kmod; nic = None; cores = [ 0 ]; poison = None }
  in
  let steal = Plan.core_steal ~period:(Time.us 50) ~duration:(Time.us 5) () in
  let rejected what msg target plans =
    check_raises what (Invalid_argument ("Injector.arm: " ^ msg)) (fun () ->
        Injector.arm inj target (Plan.ipi_loss ~p_drop:1.0 () :: plans));
    check bool (what ^ ": no hook installed") true
      (Machine.fault_fate machine ~core:0 Vectors.uintr_notification = Machine.Deliver);
    check int (what ^ ": nothing scheduled") 0 (Engine.pending engine)
  in
  rejected "core steal without a Kmod" "core-steal plan without a Kmod" (target ())
    [ steal ];
  rejected "poison without a spawn callback" "poison plan without a spawn callback"
    (target ~kmod ())
    [ steal; Plan.poison ~period:(Time.us 50) ~service:(Time.us 5) () ];
  rejected "packet loss without a NIC" "packet-loss plan without a NIC"
    (target ~kmod ())
    [ steal; Plan.packet_loss ~p_drop:0.5 () ];
  Injector.arm inj (target ~kmod ()) [ Plan.ipi_loss ~p_drop:1.0 (); steal ];
  check bool "a valid list then arms its hook" true
    (Machine.fault_fate machine ~core:0 Vectors.uintr_notification = Machine.Drop);
  check int "and its steal loop" 1 (Engine.pending engine);
  (* Tenant plans: an unknown tenant late in the list schedules nothing
     for the known one ahead of it. *)
  let broker = Skyloft_alloc.Broker.create ~engine ~capacity:2 () in
  Skyloft_alloc.Broker.register broker ~tenant:1 ~name:"t1" ~kind:Alloc_policy.Lc
    ~policy:(Alloc_policy.static ())
    ~bounds:{ Allocator.guaranteed = 0; burstable = 2 }
    ~initial:0
    ~sample:(fun () -> { Allocator.runq_len = 0; oldest_delay = 0; busy_ns = 0 })
    ~apply:(fun ~granted:_ ~delta:_ -> 0);
  let crash tenant = Plan.tenant_crash ~tenant () in
  check_raises "unknown tenant rejected"
    (Invalid_argument "Broker: unregistered tenant 9") (fun () ->
      Injector.arm_tenants inj ~broker [ crash 1; crash 9 ]);
  check int "no crash scheduled" 1 (Engine.pending engine);
  Injector.arm_tenants inj ~broker [ crash 1 ];
  check int "a valid tenant list schedules its crash" 2 (Engine.pending engine)

(* ---- NIC loss injection ---- *)

let test_nic_loss () =
  let engine = Engine.create () in
  let nic = Nic.create engine ~queues:1 ~ring_capacity:16 () in
  let seen = ref 0 in
  Nic.on_packet nic ~queue:0 (fun _ -> incr seen);
  let pkt i = Packet.create ~arrival:0 ~service:(Time.us 1) ~flow:i ~kind:"get" in
  Nic.set_loss nic (Some (fun p -> p.Packet.flow mod 2 = 0));
  for i = 0 to 9 do
    Nic.rx nic (pkt i)
  done;
  Engine.run engine;
  check int "even packets dropped on the wire" 5 (Nic.injected_drops nic);
  check int "odd packets delivered" 5 !seen;
  check int "all arrivals counted" 10 (Nic.received nic);
  Nic.set_loss nic None;
  Nic.rx nic (pkt 100);
  Engine.run engine;
  check int "loss cleared" 5 (Nic.injected_drops nic)

(* ---- percpu: watchdog rescues a stuck core ---- *)

let test_percpu_watchdog_rescue () =
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:2) in
  let kmod = Kmod.create machine in
  (* no timer at all: a poisoned (never-yielding) task can only be broken
     out by the watchdog *)
  let rt =
    Percpu.runtime
      (Percpu.create machine kmod ~cores:[ 0 ] ~preemption:false
         ~watchdog:(Time.us 50)
         (Skyloft_policies.Fifo.create ()))
  in
  let app = Rc.create_app rt ~name:"a" in
  ignore
    (Rc.spawn rt app ~name:"poison"
       (Coro.Compute (Time.ms 5, fun () -> Coro.Exit)));
  let short_done = ref 0 in
  ignore
    (Rc.spawn rt app ~name:"victim"
       (Coro.Compute (Time.us 10, fun () -> short_done := Engine.now engine; Coro.Exit)));
  Engine.run ~until:(Time.ms 1) engine;
  check bool "watchdog rescued the stuck core" true (Rc.watchdog_rescues rt >= 1);
  check bool "queued task ran after the rescue" true
    (!short_done > 0 && !short_done < Time.us 500);
  check bool "detection latency recorded" true
    (Histogram.count (Rc.rescue_detection rt) >= 1)

(* ---- percpu: deadline kill ---- *)

let test_percpu_deadline_kill () =
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:2) in
  let kmod = Kmod.create machine in
  let rt =
    Percpu.runtime
      (Percpu.create machine kmod ~cores:[ 0 ] ~preemption:false
         (Skyloft_policies.Fifo.create ()))
  in
  let app = Rc.create_app rt ~name:"a" in
  let dropped = ref 0 and completed = ref 0 in
  (* three fates: completes before the deadline, killed while running,
     killed while still queued behind the runner *)
  ignore
    (Rc.spawn rt app ~name:"fast" ~deadline:(Time.us 500)
       ~on_drop:(fun _ -> incr dropped)
       (Coro.Compute (Time.us 20, fun () -> incr completed; Coro.Exit)));
  ignore
    (Rc.spawn rt app ~name:"slow" ~deadline:(Time.us 100)
       ~on_drop:(fun _ -> incr dropped)
       (Coro.Compute (Time.ms 2, fun () -> incr completed; Coro.Exit)));
  ignore
    (Rc.spawn rt app ~name:"queued" ~deadline:(Time.us 50)
       ~on_drop:(fun _ -> incr dropped)
       (Coro.Compute (Time.us 20, fun () -> incr completed; Coro.Exit)));
  Engine.run ~until:(Time.ms 5) engine;
  check int "one task completed" 1 !completed;
  check int "two tasks dropped" 2 !dropped;
  check int "runtime counter agrees" 2 (Rc.deadline_drops rt);
  check int "summary drop accounting agrees" 2 (Summary.drops app.App.summary)

(* ---- centralized: lost preemption IPI rescued by the watchdog ---- *)

let test_centralized_watchdog_rescue () =
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:4) in
  let kmod = Kmod.create machine in
  let rt =
    Hybrid.runtime
      (Hybrid.create machine kmod ~dispatcher_core:0 ~worker_cores:[ 1 ]
         ~quantum:(Time.us 20) ~adaptive:false ~watchdog:(Time.us 100)
         (Skyloft_policies.Fifo.create ()))
  in
  let app = Rc.create_app rt ~name:"a" in
  (* every preemption notification is lost: quantum expiry cannot preempt,
     so only the watchdog can free the worker for the second request *)
  Machine.set_fault_hook machine (fun ~core:_ vector ->
      if vector = Vectors.uintr_notification then Machine.Drop else Machine.Deliver);
  ignore
    (Rc.spawn rt app ~name:"hog"
       (Coro.Compute (Time.ms 3, fun () -> Coro.Exit)));
  let short_done = ref 0 in
  ignore
    (Rc.spawn rt app ~name:"victim"
       (Coro.Compute (Time.us 10, fun () -> short_done := Engine.now engine; Coro.Exit)));
  Engine.run ~until:(Time.ms 1) engine;
  check bool "watchdog rescued the worker" true (Rc.watchdog_rescues rt >= 1);
  check bool "second request ran after the rescue" true
    (!short_done > 0 && !short_done < Time.ms 1)

(* ---- centralized: dispatcher failover under a host steal ---- *)

let test_centralized_dispatcher_failover () =
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:4) in
  let kmod = Kmod.create machine in
  let rt =
    Hybrid.runtime
      (Hybrid.create machine kmod ~dispatcher_core:0 ~worker_cores:[ 1; 2 ]
         ~quantum:(Time.us 20) ~adaptive:false ~watchdog:(Time.us 100)
         (Skyloft_policies.Fifo.create ()))
  in
  let app = Rc.create_app rt ~name:"a" in
  let served_at = ref 0 in
  Engine.at engine (Time.us 10) (fun () ->
      (* the host kernel steals the dispatcher core for 2 ms *)
      Kmod.steal_core kmod ~core:0 ~duration:(Time.ms 2));
  (* submitted after the failover deadline (bound = 100 us): without the
     failover the dispatcher would sit wedged until the 2 ms hand-back *)
  Engine.at engine (Time.us 400) (fun () ->
      ignore
        (Rc.spawn rt app ~name:"post-failover"
           (Coro.Compute (Time.us 10, fun () -> served_at := Engine.now engine; Coro.Exit))));
  Engine.run ~until:(Time.ms 1) engine;
  check bool "watchdog failed the dispatcher over" true (Rc.failovers rt >= 1);
  check bool "request served long before the steal hand-back" true
    (!served_at > 0 && !served_at < Time.ms 1)

(* ---- centralized: deadline drop ---- *)

let test_centralized_deadline_kill () =
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:4) in
  let kmod = Kmod.create machine in
  let rt =
    Hybrid.runtime
      (Hybrid.create machine kmod ~dispatcher_core:0 ~worker_cores:[ 1 ]
         ~quantum:0 ~adaptive:false
         (Skyloft_policies.Fifo.create ()))
  in
  let app = Rc.create_app rt ~name:"a" in
  let dropped = ref 0 and completed = ref 0 in
  ignore
    (Rc.spawn rt app ~name:"slow" ~deadline:(Time.us 100)
       ~on_drop:(fun _ -> incr dropped)
       (Coro.Compute (Time.ms 2, fun () -> incr completed; Coro.Exit)));
  ignore
    (Rc.spawn rt app ~name:"queued" ~deadline:(Time.us 50)
       ~on_drop:(fun _ -> incr dropped)
       (Coro.Compute (Time.us 10, fun () -> incr completed; Coro.Exit)));
  Engine.run ~until:(Time.ms 5) engine;
  check int "both requests dropped" 2 !dropped;
  check int "nothing completed" 0 !completed;
  check int "runtime counter agrees" 2 (Rc.deadline_drops rt);
  check int "summary drop accounting agrees" 2 (Summary.drops app.App.summary)

(* ---- allocator: graceful degradation and recovery ---- *)

let test_allocator_degrades_and_recovers () =
  let engine = Engine.create () in
  let events = ref [] in
  let alloc =
    Allocator.create ~engine
      ~policy:(Alloc_policy.delay ())
      ~total_cores:4
      ~on_event:(fun e -> events := e.Allocator.action :: !events)
      ~degrade_after:3 ()
  in
  let frozen = ref true in
  let busy = ref 0 in
  Allocator.register alloc ~app:0 ~name:"lc" ~kind:Alloc_policy.Lc
    ~bounds:{ Allocator.guaranteed = 1; burstable = 4 }
    ~initial:2
    ~sample:(fun () ->
      (* work queued, cores granted — but zero progress while frozen *)
      if not !frozen then busy := !busy + Time.us 8;
      { Allocator.runq_len = 4; oldest_delay = Time.us 20; busy_ns = !busy })
    ~apply:(fun ~granted:_ ~delta:_ -> 0);
  Allocator.tick alloc;
  Allocator.tick alloc;
  check bool "not yet degraded below the threshold" false (Allocator.degraded alloc);
  Allocator.tick alloc;
  check bool "degraded at the third stale tick" true (Allocator.degraded alloc);
  check int "one degradation counted" 1 (Allocator.degradations alloc);
  (* progress resumes: signals thaw, the configured policy comes back *)
  frozen := false;
  Allocator.tick alloc;
  Allocator.tick alloc;
  check bool "recovered once progress resumed" false (Allocator.degraded alloc);
  let saw a = List.mem a !events in
  check bool "Degraded event emitted" true (saw Allocator.Degrade);
  check bool "Recovered event emitted" true (saw Allocator.Recover)

(* ---- reconciliation with zero-service requests ---- *)

(* Regression: [Runtime_core.admit] recorded a completion's summary and
   attribution rows only when the declared service was positive, so a
   degenerate workload of zero-service requests completed without a trace
   — [requests] stayed 0 against N completions and reconciliation against
   the spawn counters broke silently. *)
let test_zero_service_requests_reconcile () =
  let engine = Engine.create ~seed:5 () in
  let machine =
    Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:2)
  in
  let kmod = Kmod.create machine in
  let rt =
    Percpu.runtime
      (Percpu.create machine kmod ~cores:[ 0; 1 ] (Skyloft_policies.Fifo.create ()))
  in
  let app = Rc.create_app rt ~name:"degenerate" in
  let n = 12 in
  for i = 0 to n - 1 do
    Engine.at engine (i * Time.us 10) (fun () ->
        (* declared service 0, body exits immediately *)
        ignore (Rc.spawn rt app ~name:(Printf.sprintf "z%d" i) Coro.Exit))
  done;
  Engine.run ~until:(Time.ms 2) engine;
  check int "all spawned" n app.App.spawned;
  check int "all completed" n app.App.completed;
  check int "every zero-service completion in the summary" n
    (Summary.requests app.App.summary);
  check int "every zero-service completion attributed" n
    (Skyloft_obs.Attribution.requests app.App.attribution);
  check int "submitted = completed + drops" n
    (app.App.completed + Summary.drops app.App.summary)

(* ---- fault sweep: reconciliation — no task silently lost ---- *)

let test_fault_sweep_zero_lost () =
  let config = { E.Config.duration = Time.ms 5; seed = 7; jobs = 1; requests = None } in
  List.iter
    (fun runtime ->
      let p = E.Fault_sweep.run_point config ~runtime ~rate:0.05 in
      check int
        (Printf.sprintf "%s: submitted all accounted for" p.E.Fault_sweep.runtime)
        0 p.E.Fault_sweep.lost;
      check bool
        (Printf.sprintf "%s: work actually flowed" p.E.Fault_sweep.runtime)
        true
        (p.E.Fault_sweep.submitted > 0 && p.E.Fault_sweep.completed > 0);
      check bool
        (Printf.sprintf "%s: faults actually injected" p.E.Fault_sweep.runtime)
        true
        (p.E.Fault_sweep.injected > 0))
    E.Fault_sweep.runtimes

let suite =
  [
    test_case "machine: interrupt fate hook" `Quick test_machine_fault_hook;
    test_case "kmod: core steal masks and extends" `Quick test_kmod_steal;
    test_case "retrying: succeeds after retry" `Quick test_retrying_succeeds_after_retry;
    test_case "retrying: exponential backoff, give-up" `Quick
      test_retrying_gives_up_with_exponential_backoff;
    test_case "retrying: backoff ceiling" `Quick test_retrying_backoff_ceiling;
    test_case "retrying: done_ idempotent" `Quick test_retrying_done_idempotent;
    test_case "plan: validation and windows" `Quick test_plan_validation;
    test_case "plan: degenerate windows rejected" `Quick test_window_validation;
    test_case "injector: IPI drop" `Quick test_injector_ipi_drop;
    test_case "injector: second IPI-loss plan rejected" `Quick
      test_injector_second_ipi_loss;
    test_case "injector: a rejected list installs nothing" `Quick
      test_injector_rejects_before_side_effects;
    test_case "nic: injected wire loss" `Quick test_nic_loss;
    test_case "percpu: watchdog rescue" `Quick test_percpu_watchdog_rescue;
    test_case "percpu: deadline kill" `Quick test_percpu_deadline_kill;
    test_case "centralized: watchdog rescue" `Quick test_centralized_watchdog_rescue;
    test_case "centralized: dispatcher failover" `Quick
      test_centralized_dispatcher_failover;
    test_case "centralized: deadline kill" `Quick test_centralized_deadline_kill;
    test_case "allocator: degrade and recover" `Quick
      test_allocator_degrades_and_recovers;
    test_case "zero-service requests reconcile" `Quick
      test_zero_service_requests_reconcile;
    test_case "fault-sweep: zero lost tasks" `Slow test_fault_sweep_zero_lost;
  ]
