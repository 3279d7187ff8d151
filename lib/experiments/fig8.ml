module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Rng = Skyloft_sim.Rng
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Kmod = Skyloft_kernel.Kmod
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

type point = { offered_rps : float; achieved_rps : float; p999_us : float;
               p999_slowdown : float }

let run_server (config : Config.t) system ~workers ~service ~rate_rps =
  let engine = Engine.create ~seed:config.seed () in
  let machine = Machine.create engine Topology.paper_server in
  let kmod = Kmod.create machine in
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
  let in_window = ref 0 in
  ignore
    (Engine.at engine config.duration (fun () ->
         in_window := Summary.requests app.App.summary));
  Engine.run ~until:(config.duration + Time.ms 60) engine;
  {
    offered_rps = rate_rps;
    achieved_rps = float_of_int !in_window /. Time.to_s_float config.duration;
    p999_us = Time.to_us_float (Summary.latency_p app.App.summary 99.9);
    p999_slowdown = Summary.slowdown_p app.App.summary 99.9;
  }

(* ---- (a) Memcached ---- *)

let memcached_workers = 4
let memcached_saturation = Memcached.saturation_rps ~cores:memcached_workers
let memcached_fractions = [ 0.2; 0.4; 0.6; 0.7; 0.8; 0.9; 0.95 ]
let memcached_systems = [ Sky_ws None; Shenango_ws ]

(* One cell per (system, load fraction), fanned across domains. *)
let sweep_grid (config : Config.t) systems ~fractions ~run =
  let cells =
    List.concat_map (fun s -> List.map (fun frac -> (s, frac)) fractions) systems
  in
  let points =
    Parallel.map ~jobs:config.jobs (fun (s, frac) -> run s frac) cells
  in
  List.map2
    (fun s pts -> (system_name s, pts))
    systems
    (Parallel.group ~size:(List.length fractions) points)

let sweep_memcached (config : Config.t) system =
  Parallel.map ~jobs:config.jobs
    (fun frac ->
      run_server config system ~workers:memcached_workers ~service:Memcached.service
        ~rate_rps:(frac *. memcached_saturation))
    memcached_fractions

let print_a config =
  Report.section
    (Printf.sprintf
       "Figure 8a: Memcached USR workload, 4 workers — p99.9 latency (us) vs load \
        (saturation ~%.0f krps)"
       (memcached_saturation /. 1000.));
  let results =
    sweep_grid config memcached_systems ~fractions:memcached_fractions
      ~run:(fun s frac ->
        run_server config s ~workers:memcached_workers ~service:Memcached.service
          ~rate_rps:(frac *. memcached_saturation))
  in
  let header =
    "system"
    :: List.map (fun f -> Printf.sprintf "%.0f%%" (f *. 100.)) memcached_fractions
  in
  let rows =
    List.map
      (fun (name, points) ->
        name :: List.map (fun p -> Printf.sprintf "%.1f" p.p999_us) points)
      results
  in
  Report.table ~header rows;
  Report.subsection "achieved throughput (krps)";
  let rows_t =
    List.map
      (fun (name, points) ->
        name :: List.map (fun p -> Report.krps p.achieved_rps) points)
      results
  in
  Report.table ~header:("system" :: List.tl header) rows_t;
  Report.note "paper: Skyloft within 2%% of Shenango's max throughput, slightly lower";
  Report.note "       low-load tails (Shenango pays core re-allocations)";
  results

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

let sweep_rocksdb (config : Config.t) system =
  Parallel.map ~jobs:config.jobs
    (fun frac ->
      run_server config system ~workers:rocksdb_workers ~service:Rocksdb.service
        ~rate_rps:(frac *. rocksdb_saturation))
    rocksdb_fractions

(** Highest achieved load (krps) whose p99.9 slowdown stays under the SLO. *)
let max_load_under_slo points ~slo =
  List.fold_left
    (fun acc p -> if p.p999_slowdown <= slo then max acc p.achieved_rps else acc)
    0.0 points

let print_b config =
  Report.section
    (Printf.sprintf
       "Figure 8b: RocksDB bimodal 50/50 GET/SCAN, 14 workers — p99.9 slowdown vs load \
        (saturation ~%.1f krps)"
       (rocksdb_saturation /. 1000.));
  let results =
    sweep_grid config rocksdb_systems ~fractions:rocksdb_fractions
      ~run:(fun s frac ->
        run_server config s ~workers:rocksdb_workers ~service:Rocksdb.service
          ~rate_rps:(frac *. rocksdb_saturation))
  in
  let header =
    "system"
    :: List.map (fun f -> Printf.sprintf "%.0f%%" (f *. 100.)) rocksdb_fractions
  in
  let rows =
    List.map
      (fun (name, points) ->
        name :: List.map (fun p -> Printf.sprintf "%.1fx" p.p999_slowdown) points)
      results
  in
  Report.table ~header rows;
  Report.subsection "max sustained load at 50x p99.9-slowdown SLO (krps)";
  let slo_rows =
    List.map
      (fun (name, points) ->
        [ name; Report.krps (max_load_under_slo points ~slo:50.0) ])
      results
  in
  Report.table ~header:[ "system"; "max krps @ 50x" ] slo_rows;
  Report.note "paper: Skyloft q=5us sustains ~1.9x Shenango's load at the 50x SLO;";
  Report.note "       the utimer variant is ~13%% below the LAPIC-timer variant";
  results
