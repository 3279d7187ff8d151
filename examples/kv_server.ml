(* A RocksDB-style key-value server over the kernel-bypass network path:
   NIC with RSS steering into per-core rings, work-stealing scheduling, and
   the headline feature — microsecond preemption via user-space timer
   interrupts that rescues GETs stuck behind 591 us SCANs (§5.3,
   Figure 8b).

     dune exec examples/kv_server.exe *)

module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Kmod = Skyloft_kernel.Kmod
module Percpu = Skyloft.Percpu
module App = Skyloft.App
module Summary = Skyloft_stats.Summary
module Nic = Skyloft_net.Nic
module Loadgen = Skyloft_net.Loadgen
module Udp_server = Skyloft_apps.Udp_server
module Rocksdb = Skyloft_apps.Rocksdb
module Rc = Skyloft.Runtime_core

let serve ~preemptive =
  let engine = Engine.create ~seed:5 () in
  let machine = Machine.create engine Topology.paper_server in
  let kmod = Kmod.create machine in
  let cores = [ 0; 1; 2; 3 ] in
  let quantum = if preemptive then Some (Time.us 5) else None in
  let percpu =
    Percpu.create machine kmod ~cores ~timer_hz:100_000 ~preemption:preemptive
      (Skyloft_policies.Work_stealing.create ?quantum ())
  in
  let rt = Percpu.runtime percpu in
  let app = Rc.create_app rt ~name:"rocksdb" in
  let nic = Nic.create engine ~queues:(List.length cores) () in
  Udp_server.attach percpu app nic ~cores;
  let rng = Engine.split_rng engine in
  (* ~60% load of the 4-core saturation for the bimodal mix *)
  let rate = 0.6 *. Rocksdb.saturation_rps ~cores:4 in
  Loadgen.poisson engine ~rng ~rate_rps:rate ~service:Rocksdb.service
    ~duration:(Time.ms 300) (fun pkt -> Nic.rx nic pkt);
  Engine.run ~until:(Time.ms 350) engine;
  (app, Rc.preemptions rt)

let describe label (app, preemptions) =
  Printf.printf "%-28s p99.9 slowdown=%6.1fx   p99.9 latency=%-10s preemptions=%d\n"
    label
    (Summary.slowdown_p app.App.summary 99.9)
    (Format.asprintf "%a" Time.pp (Summary.latency_p app.App.summary 99.9))
    preemptions

let () =
  print_endline
    "RocksDB server, 50% GET (0.95us) / 50% SCAN (591us), 4 cores, 60% load:";
  describe "work stealing (cooperative)" (serve ~preemptive:false);
  describe "work stealing + 5us quantum" (serve ~preemptive:true);
  print_endline
    "=> same policy, same code path; enabling the user-space timer interrupt";
  print_endline
    "   handler turns a 600x-service-time tail into a bounded one (Fig. 8b)"
