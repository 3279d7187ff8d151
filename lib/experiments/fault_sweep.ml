module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Coro = Skyloft_sim.Coro
module Dist = Skyloft_sim.Dist
module Kmod = Skyloft_kernel.Kmod
module Summary = Skyloft_stats.Summary
module Histogram = Skyloft_stats.Histogram
module App = Skyloft.App
module Rc = Skyloft.Runtime_core
module Scenario = Skyloft_scenario.Scenario
module Allocator = Skyloft_alloc.Allocator
module Alloc_policy = Skyloft_alloc.Policy
module Nic = Skyloft_net.Nic
module Packet = Skyloft_net.Packet
module Loadgen = Skyloft_net.Loadgen
module Synthetic = Skyloft_apps.Synthetic
module Plan = Skyloft_fault.Plan
module Injector = Skyloft_fault.Injector

(** Fault-rate sweep: tail latency and recovery accounting under injected
    faults (the lib/fault subsystem exercised end to end).

    Both runtimes serve the dispersive open-loop workload through a NIC
    with small rings while the injector applies every fault class —
    dropped/delayed preemption IPIs and timer ticks, host-kernel core
    steals, poisoned never-yielding tasks, wire packet loss — at a swept
    intensity.  Recovery machinery (per-core watchdog, dispatcher
    failover, request deadlines with client retry, allocator degradation)
    must keep the accounting lossless: every submitted request ends as a
    completion, an explicit give-up, or an explicit network drop.  The
    [lost] column is that reconciliation residue and must be zero. *)

let n_workers = 8
let watchdog_bound = Time.us 200
let deadline = Time.ms 25
let retry_budget = 2
let retry_backoff = Time.us 200
let load_frac = 0.4
let rate_rps = load_frac *. Synthetic.saturation_rps ~cores:n_workers
let drain = Time.ms 60
let ring_capacity = 64
let steal_duration = Time.us 30
let poison_service = Time.ms 1
let poison_deadline = Time.ms 2
let fault_rates = [ 0.0; 0.01; 0.05 ]

let runtimes = Scenario.[ Centralized; Percpu; Hybrid; Worksteal ]

(* Fault intensity [rate] scales every class: IPI drop/delay probability is
   [rate] per delivery, one 30 µs core steal every [30 µs / rate], one
   poisoned task every [2 ms / rate], and wire loss at [rate / 10] per
   packet. *)
let plans rate =
  if rate <= 0.0 then []
  else
    [
      Plan.ipi_loss ~p_drop:rate ~p_delay:rate ~delay:(Time.us 50) ();
      Plan.core_steal
        ~period:(int_of_float (float_of_int steal_duration /. rate))
        ~duration:steal_duration ();
      Plan.poison
        ~period:(int_of_float (float_of_int (Time.ms 2) /. rate))
        ~service:poison_service ();
      Plan.packet_loss ~p_drop:(rate /. 10.) ();
    ]

type point = {
  runtime : string;
  rate : float;
  p99_us : float;
  submitted : int;
  completed : int;
  gave_up : int;
  net_drops : int;  (** ring overflow + injected wire loss *)
  lost : int;  (** reconciliation residue; must be 0 *)
  attempts : int;
  deadline_drops : int;
  rescues : int;
  failovers : int;
  degradations : int;
  detect_p50_us : float;
  detect_p99_us : float;
  injected : int;
  steals : int;
}

type counters = {
  mutable submitted : int;
  mutable completed : int;
  mutable gave_up : int;
  mutable attempts : int;
}

(* The served setup the two recovery experiments share (this sweep and
   {!Obs_report}): [runtime] on [workers] cores with the watchdog armed,
   an "lc" and a "batch" app under [alloc], one NIC queue, and an injector
   whose target covers the dispatcher cores too ([poison] left unset).
   Split order is fixed so a zero-rate run draws the same generator
   stream as a faulty one (the injector draws only from its own split). *)
type rig = {
  engine : Engine.t;
  kmod : Kmod.t;
  rt : Rc.t;
  lc : App.t;
  be : App.t;
  nic : Nic.t;
  injector : Injector.t;
  target : Injector.target;
  gen_rng : Skyloft_sim.Rng.t;
}

let rig (config : Config.t) ~runtime ~workers ~alloc ~ring_capacity =
  let engine, machine, kmod = Harness.fresh config in
  let rt =
    Scenario.build ~watchdog:watchdog_bound machine kmod ~first_core:0
      ~cores:workers runtime
  in
  let lc = Rc.create_app rt ~name:"lc" in
  let be = Rc.create_app rt ~name:"batch" in
  Rc.attach_be_app rt ~alloc be ~chunk:(Time.us 50) ~workers;
  let nic = Nic.create engine ~queues:1 ?ring_capacity () in
  let inj_rng = Engine.split_rng engine in
  let gen_rng = Engine.split_rng engine in
  {
    engine;
    kmod;
    rt;
    lc;
    be;
    nic;
    injector = Injector.create ~engine ~rng:inj_rng ();
    target =
      {
        Injector.machine;
        kmod = Some kmod;
        nic = Some nic;
        cores = List.init (workers + Scenario.dispatcher_cores runtime) Fun.id;
        poison = None;
      };
    gen_rng;
  }

let run_point (config : Config.t) ~runtime ~rate =
  (* The delay policy reclaims BE cores on LC queueing delay — a
     congestion signal that stays live even while LC is fully starved of
     cores (the utilization signal is not: an LC app with no cores has
     zero utilization and would never be granted any). *)
  let alloc =
    {
      (Allocator.default_config ()) with
      Allocator.policy = Alloc_policy.delay ();
      degrade_after = Some 40;
    }
  in
  let { engine; kmod; rt; lc; nic; injector; target; gen_rng; _ } =
    rig config ~runtime ~workers:n_workers ~alloc ~ring_capacity:(Some ring_capacity)
  in
  (* A poisoned task lands on the faulted core where the mechanism can
     pin; a serial dispatcher queues it like any request. *)
  let poison ~core ~service =
    ignore
      (Rc.spawn rt lc ~name:"poison"
         ?cpu:(if (Rc.dispatch rt).Rc.d_pinnable then Some core else None)
         ~record:false ~deadline:poison_deadline
         (Coro.Compute (service, fun () -> Coro.Exit)))
  in
  (match plans rate with
  | [] -> ()
  | ps -> Injector.arm injector { target with poison = Some poison } ps);
  let cnt = { submitted = 0; completed = 0; gave_up = 0; attempts = 0 } in
  let summary = Summary.create () in
  Nic.on_packet nic ~queue:0 (fun (pkt : Packet.t) ->
      Loadgen.retrying engine ~budget:retry_budget ~backoff:retry_backoff
        ~attempt:(fun _k done_ ->
          cnt.attempts <- cnt.attempts + 1;
          ignore
            (Rc.spawn rt lc ~name:pkt.Packet.kind ~record:false ~deadline
               ~on_drop:(fun _ -> done_ false)
               (Coro.Compute
                  ( pkt.Packet.service,
                    fun () ->
                      cnt.completed <- cnt.completed + 1;
                      Summary.record_request summary ~arrival:pkt.Packet.arrival
                        ~completion:(Engine.now engine) ~service:pkt.Packet.service;
                      done_ true;
                      Coro.Exit ))))
        (fun () -> cnt.gave_up <- cnt.gave_up + 1));
  Loadgen.poisson engine ~rng:gen_rng ~rate_rps ~service:Dist.dispersive
    ~duration:config.duration (fun pkt ->
      cnt.submitted <- cnt.submitted + 1;
      Nic.rx nic pkt);
  Engine.run ~until:(config.duration + drain) engine;
  let net_drops = Nic.drops nic + Nic.injected_drops nic in
  let detect = Rc.rescue_detection rt in
  let detect_p p =
    if Histogram.is_empty detect then 0.0
    else Time.to_us_float (Histogram.percentile detect p)
  in
  {
    runtime = Scenario.runtime_name runtime;
    rate;
    p99_us = Time.to_us_float (Summary.latency_p summary 99.0);
    submitted = cnt.submitted;
    completed = cnt.completed;
    gave_up = cnt.gave_up;
    net_drops;
    lost = cnt.submitted - cnt.completed - cnt.gave_up - net_drops;
    attempts = cnt.attempts;
    deadline_drops = Rc.deadline_drops rt;
    rescues = Rc.watchdog_rescues rt;
    failovers = Rc.failovers rt;
    degradations =
      (match Rc.allocator rt with
      | Some a -> Allocator.degradations a
      | None -> 0);
    detect_p50_us = detect_p 50.0;
    detect_p99_us = detect_p 99.0;
    injected = Injector.injected injector;
    steals = Kmod.steals kmod;
  }

(* ---- reporting ----------------------------------------------------------- *)

let json_path = "BENCH_fault.json"

let write_json results =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"runtimes\": {\n";
  List.iteri
    (fun i (name, pts) ->
      Buffer.add_string buf (Printf.sprintf "    %S: [\n" name);
      List.iteri
        (fun j p ->
          Buffer.add_string buf
            (Printf.sprintf
               "      {\"rate\": %.3f, \"p99_us\": %.2f, \"submitted\": %d, \
                \"completed\": %d, \"gave_up\": %d, \"net_drops\": %d, \
                \"lost\": %d, \"attempts\": %d, \"deadline_drops\": %d, \
                \"rescues\": %d, \"failovers\": %d, \"degradations\": %d, \
                \"detect_p50_us\": %.2f, \"detect_p99_us\": %.2f, \
                \"injected\": %d, \"steals\": %d}%s\n"
               p.rate p.p99_us p.submitted p.completed p.gave_up p.net_drops
               p.lost p.attempts p.deadline_drops p.rescues p.failovers
               p.degradations p.detect_p50_us p.detect_p99_us p.injected
               p.steals
               (if j < List.length pts - 1 then "," else "")))
        pts;
      Buffer.add_string buf
        (Printf.sprintf "    ]%s\n"
           (if i < List.length results - 1 then "," else "")))
    results;
  Buffer.add_string buf "  }\n}\n";
  Out_channel.with_open_text json_path (fun oc -> Buffer.output_buffer oc buf)

let print config =
  Report.section
    (Printf.sprintf
       "Fault-rate sweep: recovery under injected faults, %d workers at %.0f%% \
        load"
       n_workers (load_frac *. 100.));
  let results =
    Parallel.grid ~jobs:config.Config.jobs runtimes fault_rates (fun runtime rate ->
        run_point config ~runtime ~rate)
    |> List.map (fun (runtime, pts) -> (Scenario.runtime_name runtime, pts))
  in
  List.iter
    (fun (name, pts) ->
      Report.subsection (Printf.sprintf "%s runtime" name);
      Report.table
        ~header:
          [
            "fault rate";
            "p99 (us)";
            "submitted";
            "completed";
            "gave up";
            "net drops";
            "lost";
            "rescues";
            "failovers";
            "detect p99 (us)";
            "injected";
          ]
        (List.map
           (fun p ->
             [
               Printf.sprintf "%.2f" p.rate;
               Report.f1 p.p99_us;
               string_of_int p.submitted;
               string_of_int p.completed;
               string_of_int p.gave_up;
               string_of_int p.net_drops;
               string_of_int p.lost;
               string_of_int p.rescues;
               string_of_int p.failovers;
               Report.f1 p.detect_p99_us;
               string_of_int p.injected;
             ])
           pts))
    results;
  Report.note "lost = submitted - completed - gave-up - net-drops; it must be 0:";
  Report.note "every request completes, explicitly gives up, or is a counted drop";
  write_json results;
  Printf.printf "\nwrote %s\n" json_path
