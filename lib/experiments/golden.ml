module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Rng = Skyloft_sim.Rng
module Coro = Skyloft_sim.Coro
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Kmod = Skyloft_kernel.Kmod
module Percpu = Skyloft.Percpu
module Hybrid = Skyloft.Hybrid
module Rc = Skyloft.Runtime_core
module Scenario = Skyloft_scenario.Scenario
module Trace = Skyloft_stats.Trace
module Plan = Skyloft_fault.Plan
module Injector = Skyloft_fault.Injector

(** Golden determinism fingerprints.

    Each entry is a digest of everything request- or trace-visible in one
    fixed-seed run: the full Chrome-JSON trace of a small faulty run per
    runtime, the obs-report fingerprint (trace + attribution + queue
    depth), and every field of a fault-sweep point.  The values are
    recorded in [test/test_determinism.ml]; any refactor that changes a
    single scheduling decision, cost charge, or trace byte at the same
    seed fails that test.  Regenerate intentionally with
    [skyloft_run golden] after a behaviour-changing (not
    behaviour-preserving) change. *)

(* One small fully traced run per runtime configuration: 40 staggered
   requests on four workers under IPI loss and core steals, watchdog
   armed; returns the rendered Chrome JSON, the injected-fault count and
   one mechanism-specific counter.  Each configuration passes its own
   constructor, pinning and burst:
   - percpu: FIFO on the per-CPU runtime;
   - worksteal: steal-half with parking, every task pinned to core 0 so
     the other deques run dry (steal-half grabs, failed scans and the
     park/unpark path; the counter is the steal count);
   - centralized: Shinjuku on the pinned hybrid;
   - hybrid: Shinjuku-Shenango with a mid-run burst deep enough to cross
     the hysteresis band, covering both dispatch modes and the
     [Mode_switch] instants between them (the counter is the number of
     mode switches). *)
let traced ~seed runtime =
  (* app ids leak into the trace's pid fields; per-run allocation in
     Runtime_core labels the app identically in every run *)
  let engine = Engine.create () in
  let dispatchers = Scenario.dispatcher_cores runtime in
  let cores = List.init (4 + dispatchers) Fun.id in
  let workers = List.filteri (fun i _ -> i >= dispatchers) cores in
  let machine =
    Machine.create engine
      (Topology.create ~sockets:1 ~cores_per_socket:(List.length cores))
  in
  let kmod = Kmod.create machine in
  let hybrid ~adaptive policy =
    Hybrid.create machine kmod ~dispatcher_core:0 ~worker_cores:workers
      ~quantum:(Time.us 30) ~adaptive ~watchdog:(Time.us 200) policy
  in
  let rt, pin, burst, counter =
    match runtime with
    | Scenario.Percpu ->
        ( Percpu.runtime
            (Percpu.create machine kmod ~cores ~watchdog:(Time.us 100)
               (Skyloft_policies.Fifo.create ())),
          None,
          false,
          fun () -> 0 )
    | Scenario.Worksteal ->
        let policy, steals =
          Skyloft_policies.Work_stealing.steal_half ~quantum:(Time.us 30) ()
        in
        ( Percpu.runtime
            (Percpu.create machine kmod ~cores ~watchdog:(Time.us 100)
               ~park:Skyloft_policies.Work_stealing.park policy),
          Some 0,
          false,
          fun () -> steals.Skyloft_policies.Work_stealing.steals )
    | Scenario.Centralized ->
        ( Hybrid.runtime (hybrid ~adaptive:false (Skyloft_policies.Shinjuku.create ())),
          None,
          false,
          fun () -> 0 )
    | Scenario.Hybrid ->
        let h =
          hybrid ~adaptive:true (fst (Skyloft_policies.Shinjuku_shenango.create ()))
        in
        (Hybrid.runtime h, None, true, fun () -> Hybrid.mode_switches h)
  in
  let trace = Trace.create () in
  Rc.set_trace rt trace;
  let rng = Rng.create ~seed in
  let inj = Injector.create ~engine ~rng ~trace () in
  Injector.arm inj
    { Injector.machine; kmod = Some kmod; nic = None; cores; poison = None }
    [
      Plan.ipi_loss ~p_drop:0.3 ~p_delay:0.3 ~delay:(Time.us 20) ();
      Plan.core_steal ~period:(Time.us 200) ~duration:(Time.us 50) ();
    ];
  let app = Rc.create_app rt ~name:"a" in
  let submit i =
    ignore
      (Rc.spawn rt app ?cpu:pin
         ~name:(Printf.sprintf "t%d" i)
         (Coro.Compute (Time.us 10 + (i mod 7 * Time.us 4), fun () -> Coro.Exit)))
  in
  for i = 0 to 39 do
    ignore (Engine.at engine (i * Time.us 25) (fun () -> submit i))
  done;
  (* the burst: 20 requests land together, pushing the queue past the
     hi threshold (2x the workers) so the monitor flips to percore *)
  if burst then
    ignore
      (Engine.at engine (Time.ms 1 + Time.us 10) (fun () ->
           for i = 100 to 119 do
             submit i
           done));
  Engine.run ~until:(Time.ms 3) engine;
  (Trace.to_chrome_json trace, Injector.injected inj, counter ())

(* Every field of the point, pinned down to the last counter. *)
let fault_point_string (p : Fault_sweep.point) =
  Printf.sprintf
    "%s|%.6f|%.6f|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%.6f|%.6f|%d|%d"
    p.runtime p.rate p.p99_us p.submitted p.completed p.gave_up p.net_drops
    p.lost p.attempts p.deadline_drops p.rescues p.failovers p.degradations
    p.detect_p50_us p.detect_p99_us p.injected p.steals

let digest s = Digest.to_hex (Digest.string s)

(* Fixed seeds and durations: golden values must not depend on the CLI
   config, only on the code. *)
let trace_seed = 1234
let sweep_config =
  { Config.duration = Time.ms 5; seed = 11; jobs = 1; requests = None }

let sweep_rate = 0.05

let obs_config =
  { Config.duration = Time.ms 5; seed = 7; jobs = 1; requests = None }

(* Scale cells run tiny compared to the real sweep (30k requests) but
   through the identical compile-and-run path; the digest covers every
   count, histogram summary and allocator total in the cell. *)
let scale_seed = 5
let scale_requests = 30_000

(* The machine-level obs point: full brokered fleet with all three tenant
   faults, digest over the machine trace JSON (spans + broker instants +
   allowance counter tracks) and the placement digest. *)
let obs_machine_seed = 7
let obs_machine_requests = 400

(* Every golden is one independent cell; [jobs] fans them across domains.
   The values must be identical at any [jobs] — that invariance, checked
   against the committed digests, is the proof that parallelization is
   transparent. *)
let fingerprints ?(jobs = 1) () =
  let cells =
    List.map
      (fun runtime ->
        ( "trace-" ^ Scenario.runtime_name runtime,
          fun () ->
            let json, _, _ = traced ~seed:trace_seed runtime in
            digest json ))
      Scenario.runtimes
    @ List.map
        (fun runtime ->
          ( "fault-sweep-" ^ Scenario.runtime_name runtime,
            fun () ->
              digest
                (fault_point_string
                   (Fault_sweep.run_point sweep_config ~runtime ~rate:sweep_rate))
          ))
        Fault_sweep.runtimes
    @ List.map
        (fun runtime ->
          ( "obs-report-" ^ Scenario.runtime_name runtime,
            fun () ->
              (Obs_report.run_point obs_config ~runtime ~instrumented:false)
                .Obs_report.fingerprint ))
        Obs_report.runtimes
    @ [
        ( "obs-machine",
          fun () ->
            (Obs_report.run_machine_point ~seed:obs_machine_seed
               ~requests:obs_machine_requests ~instrumented:false)
              .Obs_report.m_fingerprint );
      ]
    @ List.concat_map
        (fun scenario ->
          List.map
            (fun runtime ->
              ( Printf.sprintf "scale-%s-%s" scenario.Scenario.name
                  (Scenario.runtime_name runtime),
                fun () ->
                  digest
                    (Scenario.digest_string
                       (Scenario.run ~seed:scale_seed
                          ~requests:scale_requests ~runtime scenario)) ))
            Scenario.runtimes)
        Scale.scenarios
    @ List.map
        (fun scenario ->
          ( "oversub-" ^ scenario,
            fun () -> digest (Oversub.golden_cell ~scenario) ))
        Oversub.golden_scenarios
  in
  Parallel.map ~jobs (fun (name, f) -> (name, f ())) cells

let print (config : Config.t) =
  Report.section "Golden determinism fingerprints (fixed seeds)";
  List.iter (fun (name, fp) -> Printf.printf "  %-24s %s\n" name fp)
    (fingerprints ~jobs:config.jobs ())
