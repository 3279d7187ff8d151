module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Summary = Skyloft_stats.Summary
module App = Skyloft.App
module Percpu = Skyloft.Percpu
module Nic = Skyloft_net.Nic
module Loadgen = Skyloft_net.Loadgen
module Udp_server = Skyloft_apps.Udp_server
module Memcached = Skyloft_apps.Memcached
module Rocksdb = Skyloft_apps.Rocksdb
module Shenango = Skyloft_baselines.Shenango
module Rc = Skyloft.Runtime_core

(** Figure 8: real-world applications over the kernel-bypass network path
    (§5.3).

    - (a) Memcached under the USR workload (light-tailed), 4 workers:
      Skyloft work stealing ~ Shenango, within ~2% max throughput, with
      slightly better low-load tails (no core parking).
    - (b) RocksDB under the bimodal 50/50 GET/SCAN workload, 14 workers,
      metric p99.9 {e slowdown}: Skyloft sustains ~1.9x Shenango's load at
      a 50x slowdown SLO with a 5 µs quantum; the utimer variant loses
      ~13% (one core burned as the software timer). *)

type system =
  | Sky_ws of Time.t option  (** work stealing, optional preemption quantum *)
  | Sky_utimer of Time.t  (** dedicated-core software timer, quantum period *)
  | Shenango_ws

let system_name = function
  | Sky_ws None -> "Skyloft-WS"
  | Sky_ws (Some q) -> Printf.sprintf "Skyloft-WS (q=%.0fus)" (Time.to_us_float q)
  | Sky_utimer q -> Printf.sprintf "Skyloft-utimer (q=%.0fus)" (Time.to_us_float q)
  | Shenango_ws -> "Shenango"

type point = { achieved_rps : float; p999_us : float; p999_slowdown : float }

let run_server (config : Config.t) system ~workers ~service ~rate_rps =
  let engine, machine, kmod = Harness.fresh config in
  let cores, rt =
    match system with
    | Sky_ws quantum ->
        let cores = List.init workers Fun.id in
        ( cores,
          Percpu.create machine kmod ~cores ~timer_hz:100_000
            ~preemption:(quantum <> None)
            (Skyloft_policies.Work_stealing.create ?quantum ()) )
    | Sky_utimer q ->
        (* one worker is sacrificed as the software timer *)
        let cores = List.init (workers - 1) Fun.id in
        let rt =
          Percpu.create machine kmod ~cores ~preemption:false
            (Skyloft_policies.Work_stealing.create ~quantum:q ())
        in
        let hz = max 1 (1_000_000_000 / q) in
        Percpu.start_utimer rt ~src_core:(workers - 1) ~hz;
        (cores, rt)
    | Shenango_ws ->
        let cores = List.init workers Fun.id in
        (cores, Shenango.make machine kmod ~cores)
  in
  let app = Rc.create_app (Percpu.runtime rt) ~name:"server" in
  let nic = Nic.create engine ~queues:(List.length cores) () in
  Udp_server.attach rt app nic ~cores;
  let rng = Engine.split_rng engine in
  Loadgen.poisson engine ~rng ~rate_rps ~service ~duration:config.duration
    (fun pkt -> Nic.rx nic pkt);
  let served = Harness.window engine config (fun () -> Summary.requests app.App.summary) in
  Engine.run ~until:(config.duration + Time.ms 60) engine;
  {
    achieved_rps = Harness.per_s config (served ());
    p999_us = Time.to_us_float (Summary.latency_p app.App.summary 99.9);
    p999_slowdown = Summary.slowdown_p app.App.summary 99.9;
  }

(* One cell per (system, load fraction) of a server with [workers] cores
   whose requests take [service]. *)
let sweep (config : Config.t) systems ~fractions ~workers ~service ~saturation =
  List.map
    (fun (s, pts) -> (system_name s, pts))
    (Parallel.grid ~jobs:config.jobs systems fractions (fun s frac ->
         run_server config s ~workers ~service ~rate_rps:(frac *. saturation)))

(* ---- (a) Memcached ---- *)

let memcached_workers = 4
let memcached_saturation = Memcached.saturation_rps ~cores:memcached_workers
let memcached_fractions = [ 0.2; 0.4; 0.6; 0.7; 0.8; 0.9; 0.95 ]

let print_a config =
  Report.section
    (Printf.sprintf
       "Figure 8a: Memcached USR workload, 4 workers — p99.9 latency (us) vs load \
        (saturation ~%.0f krps)"
       (memcached_saturation /. 1000.));
  let results =
    sweep config [ Sky_ws None; Shenango_ws ] ~fractions:memcached_fractions
      ~workers:memcached_workers ~service:Memcached.service
      ~saturation:memcached_saturation
  in
  let cols = Report.loads memcached_fractions in
  Report.series "system" cols (fun p -> Printf.sprintf "%.1f" p.p999_us) results;
  Report.subsection "achieved throughput (krps)";
  Report.series "system" cols (fun p -> Report.krps p.achieved_rps) results;
  Report.note "paper: Skyloft within 2%% of Shenango's max throughput, slightly lower";
  Report.note "       low-load tails (Shenango pays core re-allocations)"

(* ---- (b) RocksDB ---- *)

let rocksdb_workers = 14
let rocksdb_saturation = Rocksdb.saturation_rps ~cores:rocksdb_workers
let rocksdb_fractions = [ 0.2; 0.35; 0.5; 0.6; 0.7; 0.75; 0.8; 0.85; 0.9 ]

let rocksdb_systems =
  [
    Sky_ws (Some (Time.us 5));
    Sky_ws (Some (Time.us 15));
    Sky_ws (Some (Time.us 30));
    Sky_utimer (Time.us 5);
    Shenango_ws;
  ]

let print_b config =
  Report.section
    (Printf.sprintf
       "Figure 8b: RocksDB bimodal 50/50 GET/SCAN, 14 workers — p99.9 slowdown vs load \
        (saturation ~%.1f krps)"
       (rocksdb_saturation /. 1000.));
  let results =
    sweep config rocksdb_systems ~fractions:rocksdb_fractions
      ~workers:rocksdb_workers ~service:Rocksdb.service
      ~saturation:rocksdb_saturation
  in
  Report.series "system" (Report.loads rocksdb_fractions)
    (fun p -> Printf.sprintf "%.1fx" p.p999_slowdown)
    results;
  Report.subsection "max sustained load at 50x p99.9-slowdown SLO (krps)";
  Harness.print_knees "max krps @ 50x" ~slo:50.0
    (fun p -> p.p999_slowdown)
    (fun p -> p.achieved_rps)
    results;
  Report.note "paper: Skyloft q=5us sustains ~1.9x Shenango's load at the 50x SLO;";
  Report.note "       the utimer variant is ~13%% below the LAPIC-timer variant"
