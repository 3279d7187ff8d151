(* Implementing a custom scheduling policy against the Table 2 interface.

   The paper's flexibility claim is that a new policy is a few dozen lines
   against the general scheduling operations.  Here is the whole of a
   preemptive Shortest-Remaining-Service-First (SRSF) scheduler — runqueue
   ordered by declared service demand, plus quantum preemption so a newly
   arrived short job displaces a long-running one — and a head-to-head
   against FIFO on a bimodal workload.

     dune exec examples/custom_policy.exe *)

module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Coro = Skyloft_sim.Coro
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Kmod = Skyloft_kernel.Kmod
module Task = Skyloft.Task
module Sched_ops = Skyloft.Sched_ops
module Runqueue = Skyloft.Runqueue
module Percpu = Skyloft.Percpu
module App = Skyloft.App
module Summary = Skyloft_stats.Summary
module Dist = Skyloft_sim.Dist
module Loadgen = Skyloft_net.Loadgen
module Packet = Skyloft_net.Packet
module Rc = Skyloft.Runtime_core

(* ---- the custom policy: 37 lines -------------------------------------- *)

let srsf ~quantum : Sched_ops.ctor =
 fun view ->
  let q = Runqueue.create () in
  (* insert ordered by declared service, shortest first (a rebuild per
     enqueue is fine at example scale) *)
  let enqueue task =
    let all =
      List.sort
        (fun a b -> compare a.Task.service b.Task.service)
        (task :: Runqueue.to_list q)
    in
    List.iter (fun t -> ignore (Runqueue.remove q t)) (Runqueue.to_list q);
    List.iter (Runqueue.push_tail q) all
  in
  {
    Sched_ops.task_init = ignore;
    task_terminate = ignore;
    task_enqueue = (fun ~cpu:_ ~reason:_ task -> enqueue task);
    task_dequeue = (fun ~cpu:_ -> Runqueue.pop_head q);
    task_block = (fun ~cpu:_ _ -> ());
    task_wakeup =
      (fun ~waker_cpu task ->
        enqueue task;
        Sched_ops.wakeup_to_idle_or view ~fallback:waker_cpu);
    sched_timer_tick =
      (fun ~cpu:_ task ->
        (* preempt when a shorter job waits *)
        match Runqueue.peek_head q with
        | Some head -> head.Task.service < task.Task.service
                       && view.now () - task.Task.run_start >= quantum
        | None -> false);
    sched_balance = Sched_ops.no_balance;
    sched_migration_charge = Sched_ops.no_migration_charge;
    sched_idle_park = Sched_ops.park_after_grace;
  }

(* ---- head-to-head ------------------------------------------------------ *)

let bimodal = Dist.Bimodal { p_short = 0.9; short = Time.us 10; long = Time.ms 1 }

let run name ctor =
  let engine = Engine.create ~seed:3 () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:2) in
  let kmod = Kmod.create machine in
  let rt =
    Percpu.runtime (Percpu.create machine kmod ~cores:[ 0; 1 ] ~timer_hz:100_000 ctor)
  in
  let app = Rc.create_app rt ~name in
  let rng = Engine.split_rng engine in
  Loadgen.poisson engine ~rng ~rate_rps:15_000.0 ~service:bimodal ~duration:(Time.ms 200)
    (fun (pkt : Packet.t) ->
      ignore
        (Rc.spawn rt app ~name:"req" ~arrival:pkt.arrival ~service:pkt.service
           (Coro.compute_then_exit pkt.service)));
  Engine.run ~until:(Time.ms 250) engine;
  Printf.printf "%-6s  requests=%d  p50=%-10s p99=%-10s p99.9=%s\n" name
    (Summary.requests app.App.summary)
    (Format.asprintf "%a" Time.pp (Summary.latency_p app.App.summary 50.0))
    (Format.asprintf "%a" Time.pp (Summary.latency_p app.App.summary 99.0))
    (Format.asprintf "%a" Time.pp (Summary.latency_p app.App.summary 99.9))

let () =
  print_endline "bimodal load (90% 10us / 10% 1ms) on 2 cores at ~80% utilisation:";
  run "fifo" (Skyloft_policies.Fifo.create ());
  run "srsf" (srsf ~quantum:(Time.us 10));
  print_endline "=> the 37-line SRSF policy rescues the short requests' tail"
