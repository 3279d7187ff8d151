module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Summary = Skyloft_stats.Summary
module App = Skyloft.App
module Percpu = Skyloft.Percpu
module Hybrid = Skyloft.Hybrid
module Coro = Skyloft_sim.Coro
module Dist = Skyloft_sim.Dist
module Nic = Skyloft_net.Nic
module Loadgen = Skyloft_net.Loadgen
module Udp_server = Skyloft_apps.Udp_server
module Rc = Skyloft.Runtime_core

(** Ablations of the design choices DESIGN.md calls out:

    - A1 tick-frequency overhead: what the 100 kHz user timer costs in
      throughput (the interrupt-handling tax, §5.2's quantum trade-off).
    - A2 per-CPU timers vs centralized dispatcher (Figure 2a vs 2b): same
      workload, who needs the extra core and where the bottleneck sits.
    - A3 dispatcher scalability: centralized throughput vs worker count
      for tiny requests — the serialization ceiling the paper attributes
      to Shinjuku-style designs (§3.2).
    - A4 NIC reception modes: spin-polling vs periodic polling vs §6
      user-interrupt (MSI) delivery.
    - A5 the hybrid runtime vs both parents: the mode-switching runtime
      built on the shared Runtime_core substrate, at low and high load
      against pure per-CPU and pure centralized dispatch.
    - A6 the work-stealing deque runtime against the other three across
      arrival regimes — where steal-half decentralization beats the
      hybrid's dispatcher and where it loses (both asserted in-sweep). *)

(* ---- A1: tick frequency tax -------------------------------------------- *)

let a1_tick_frequency (config : Config.t) =
  Report.section "Ablation A1: user-timer tick frequency vs useful throughput";
  let run hz =
    let engine, machine, kmod = Harness.fresh config in
    let rt =
      Percpu.runtime
        (Percpu.create machine kmod ~cores:[ 0 ]
           ?timer_hz:(if hz > 0 then Some hz else None)
           ~preemption:(hz > 0)
           (Skyloft_policies.Rr.create ~slice:(Time.us 50) ()))
    in
    let app = Rc.create_app rt ~name:"hog" in
    (* one core fully loaded with 10us work items *)
    let done_ = ref 0 in
    let rec refill () =
      ignore
        (Rc.spawn rt app ~name:"chunk" ~record:false
           (Coro.Compute
              ( Time.us 10,
                fun () ->
                  incr done_;
                  if Engine.now engine < config.duration then refill ();
                  Coro.Exit )))
    in
    refill ();
    Engine.run ~until:config.duration engine;
    float_of_int (!done_ * Time.us 10) /. float_of_int config.duration
  in
  let rates = [ 0; 1_000; 10_000; 100_000; 1_000_000 ] in
  let effs = Parallel.map ~jobs:config.jobs run rates in
  (* the hz=0 cell doubles as the baseline: fresh engines make it the
     same value the old separate base run produced *)
  let base = List.hd effs in
  let rows =
    List.map2
      (fun hz eff ->
        [
          (if hz = 0 then "no timer" else Printf.sprintf "%d Hz" hz);
          Report.pct eff;
          Report.pct (eff /. base);
        ])
      rates effs
  in
  Report.table ~header:[ "tick rate"; "useful CPU"; "vs no timer" ] rows;
  Report.note "each tick costs the user-timer receive (~321ns) + SN re-post (~62ns);";
  Report.note "at the paper's 100 kHz that is a ~4%% tax, at 1 MHz it is ~40%%"

(* ---- one cell runner (A2, A3, A5, A6) ------------------------------------ *)

(* Same 8 cores and 30 µs quantum for every design: per-CPU keeps all 8
   as workers, the dispatcher flavours surrender core 0. *)
let n_cores = 8
let quantum = Time.us 30

let percpu machine kmod ?park policy =
  Percpu.create machine kmod ~cores:(List.init n_cores Fun.id)
    ~timer_hz:100_000 ?park policy

let hybrid ?(workers = n_cores - 1) machine kmod ~quantum ~adaptive policy =
  Hybrid.create machine kmod ~dispatcher_core:0
    ~worker_cores:(List.init workers (fun i -> i + 1))
    ~quantum ~adaptive policy

let no_notes () = "-"

let percpu_design machine kmod =
  ( Percpu.runtime
      (percpu machine kmod (Skyloft_policies.Work_stealing.create ~quantum ())),
    no_notes )

let centralized_design machine kmod =
  ( Hybrid.runtime
      (hybrid machine kmod ~quantum ~adaptive:false
         (Skyloft_policies.Shinjuku.create ())),
    no_notes )

let hybrid_design notes machine kmod =
  let h =
    hybrid machine kmod ~quantum ~adaptive:true
      (fst (Skyloft_policies.Shinjuku_shenango.create ()))
  in
  (Hybrid.runtime h, fun () -> notes h)

(* One cell: a fresh machine at the config's seed, the runtime [build]
   returns with its notes, one "lc" app, and [drive engine rng submit]
   issuing requests until [horizon].  The serial dispatcher cannot pin,
   so its designs take every request unpinned.  Returns the design's
   name, the app's summary, the requests it served inside the measured
   window and the notes. *)
let design (config : Config.t) ~horizon name build drive =
  let engine, machine, kmod = Harness.fresh config in
  let rt, notes = build machine kmod in
  let app = Rc.create_app rt ~name:"lc" in
  let pinnable = rt.Rc.dispatch.Rc.d_pinnable in
  let rng = Engine.split_rng engine in
  drive engine rng (fun ~cpu ~service ->
      ignore
        (Rc.spawn rt app ~name:"req"
           ?cpu:(if pinnable then cpu else None)
           ~service
           (Coro.compute_then_exit service)));
  let served = Harness.window engine config (fun () -> Summary.requests app.App.summary) in
  Engine.run ~until:horizon engine;
  (name, app.App.summary, served (), notes ())

(* Open-loop Poisson arrivals over the config's duration, unpinned. *)
let poisson (config : Config.t) ~rate ~service engine rng submit =
  Loadgen.poisson engine ~rng ~rate_rps:rate ~service
    ~duration:config.duration (fun pkt ->
      submit ~cpu:None ~service:pkt.Skyloft_net.Packet.service)

(* ---- A2: per-CPU timers vs centralized dispatcher ----------------------- *)

let a2_percpu_vs_centralized (config : Config.t) =
  Report.section
    "Ablation A2: per-CPU timer preemption (Fig 2a) vs centralized dispatcher (Fig 2b)";
  let rate = 0.75 *. (float_of_int n_cores *. 1e9 /. Dist.mean Dist.dispersive) in
  let drive = poisson config ~rate ~service:Dist.dispersive in
  let horizon = config.duration + Time.ms 60 in
  let row (name, summary, _, _) workers =
    [
      name; string_of_int workers;
      string_of_int (Summary.requests summary);
      Report.us (Summary.latency_p summary 99.0);
      Report.us (Summary.latency_p summary 99.9);
    ]
  in
  let cells =
    Parallel.map ~jobs:config.jobs
      (fun (name, build) -> design config ~horizon name build drive)
      [
        ("per-CPU timers (2a)", percpu_design);
        ("centralized dispatcher (2b)", centralized_design);
      ]
  in
  Report.table
    ~header:[ "design"; "workers"; "served"; "p99 (us)"; "p99.9 (us)" ]
    (List.map2 row cells [ n_cores; n_cores - 1 ]);
  Report.note "same 8 cores and load: the dispatcher core is lost to useful work";
  Report.note "(both p99.9 columns include the 0.5%% of requests that ARE 10ms long)"

(* ---- A3: dispatcher scalability ----------------------------------------- *)

let a3_dispatcher_scalability (config : Config.t) =
  Report.section
    "Ablation A3: centralized dispatcher scalability (1us requests, growing workers)";
  let run workers =
    (* overload: 1.2x the worker capacity of 1us requests *)
    let rate = 1.2 *. float_of_int workers *. 1e6 in
    let _, _, served, _ =
      design config ~horizon:(config.duration + Time.ms 20) "centralized"
        (fun machine kmod ->
          ( Hybrid.runtime
              (hybrid ~workers machine kmod ~quantum:0 ~adaptive:false
                 (Skyloft_policies.Shinjuku.create ())),
            no_notes ))
        (poisson config ~rate ~service:(Dist.Constant (Time.us 1)))
    in
    Harness.per_s config served /. 1.0e6
  in
  let rows =
    Parallel.map ~jobs:config.jobs
      (fun workers ->
        [ string_of_int workers; Printf.sprintf "%.2f Mrps" (run workers) ])
      [ 2; 4; 8; 16; 32 ]
  in
  Report.table ~header:[ "workers"; "achieved" ] rows;
  Report.note "the global queue + dispatch cost cap throughput regardless of";
  Report.note "worker count — the scalability wall of Figure 2b designs"

(* ---- A4: NIC reception modes --------------------------------------------- *)

let a4_nic_modes (config : Config.t) =
  Report.section "Ablation A4: NIC reception — spin polling vs periodic vs user MSI (§6)";
  let cores = [ 0; 1 ] in
  let run (mode_name, mode) =
    let engine, machine, kmod = Harness.fresh config in
    (* preemption off: with timer delegation the UPID.SN bit suppresses
       device notification IPIs and MSIs would coalesce onto timer ticks *)
    let rt =
      Percpu.create machine kmod ~cores ~preemption:false
        (Skyloft_policies.Work_stealing.create ())
    in
    let app = Rc.create_app (Percpu.runtime rt) ~name:"srv" in
    let mode = mode machine in
    let nic = Nic.create engine ~queues:2 ~mode () in
    (match mode with
    | Nic.Msi _ -> Udp_server.attach_irq rt app nic ~cores
    | Nic.Spin | Nic.Periodic _ -> Udp_server.attach rt app nic ~cores);
    let rng = Engine.split_rng engine in
    (* light load so the latency is pure delivery path *)
    Loadgen.poisson engine ~rng ~rate_rps:50_000.0 ~service:(Dist.Constant (Time.us 2))
      ~duration:config.duration (fun pkt -> Nic.rx nic pkt);
    Engine.run ~until:(config.duration + Time.ms 10) engine;
    [
      mode_name;
      Report.us (Summary.latency_p app.App.summary 50.0);
      Report.us (Summary.latency_p app.App.summary 99.0);
    ]
  in
  let rows =
    Parallel.map ~jobs:config.jobs run
      [
        ("spin polling (dedicated core)", fun _ -> Nic.Spin);
        ("periodic polling (10us)", fun _ -> Nic.Periodic (Time.us 10));
        ( "user interrupt (MSI via UINTR)",
          fun machine -> Nic.Msi { machine; cores = Array.of_list cores } );
      ]
  in
  Report.table ~header:[ "rx mode"; "p50 (us)"; "p99 (us)" ] rows;
  Report.note "user-mode MSI delivery needs no polling core and no kernel, at";
  Report.note "~0.6us interrupt latency; periodic polling trades latency for CPU"

(* ---- A5: the hybrid runtime vs both parents ------------------------------ *)

(* The load axis is where the trade-off lives — the dispatcher's single
   queue wins the low-load tail, per-core timers win throughput once the
   queue deepens — and the hybrid is supposed to track whichever parent
   is ahead, switching modes as the queue depth crosses its hysteresis
   band. *)
let a5_hybrid_vs_parents (config : Config.t) =
  Report.section
    "Ablation A5: hybrid runtime (shared Runtime_core substrate) vs both parents";
  let cap = float_of_int n_cores *. 1e9 /. Dist.mean Dist.dispersive in
  let horizon = config.duration + Time.ms 60 in
  let designs =
    [
      ("per-CPU (2a)", percpu_design);
      ("centralized (2b)", centralized_design);
      ( "hybrid",
        hybrid_design (fun h ->
            Printf.sprintf "%d switches, end %s" (Hybrid.mode_switches h)
              (match Hybrid.mode h with
              | Hybrid.Central -> "central"
              | Hybrid.Percore -> "percore")) );
    ]
  in
  let rows =
    Parallel.grid ~jobs:config.jobs [ 0.2; 0.8 ] designs (fun load (name, build) ->
        let _, summary, _, extra =
          design config ~horizon name build
            (poisson config ~rate:(load *. cap) ~service:Dist.dispersive)
        in
        [
          Printf.sprintf "%.0f%%" (load *. 100.);
          name;
          string_of_int (Summary.requests summary);
          Report.us (Summary.latency_p summary 50.0);
          Report.us (Summary.latency_p summary 99.0);
          extra;
        ])
  in
  Report.table
    ~header:[ "load"; "design"; "served"; "p50 (us)"; "p99 (us)"; "mode" ]
    (List.concat_map snd rows);
  Report.note "low load: the hybrid stays central (single queue, no stealing tail);";
  Report.note "high load: it hands the cores to per-core timers and scales past";
  Report.note "the dispatcher — one Runtime_core substrate under all three"

(* ---- A6: the work-stealing runtime across arrival regimes ---------------- *)

(* Same 8 cores, three arrival regimes, all four runtime configurations
   (worksteal is the steal-half policy on the per-CPU runtime).  The regimes
   are chosen to pull the steal-half design in opposite directions:

   - skewed: every request carries RSS affinity to a 2-core hot set.  The
     per-core runtimes honour the pin and must move work off the hot
     deques themselves (steal probes, migration cachelines, park/unpark
     round-trips, up to a tick of reaction latency); the dispatcher
     flavours spread by construction and at this load the hybrid stays
     central — its single queue is immune to placement skew.
   - bursty: a batch of requests lands on ONE core every 200 us,
     round-robin.  Steal-half disperses the burst in O(log batch) grabs,
     but thieves only notice on their next tick and parked cores pay the
     resume cost; the centralized flavours serialize the burst through
     one dispatch loop yet place each request on an idle worker with
     zero reaction latency (the hybrid also churns across its hysteresis
     band — mode switches are visible in the notes column).
   - overload: uniform arrivals at 90% of the 8-core capacity.  That is
     comfortable for the decentralized runtimes, but any design that
     surrenders a core to a dispatcher now faces 8/7 of it (~103%) plus
     the per-request dispatch cost — uniform load that overloads exactly
     the dispatcher flavours, so their backlog (and p99) grows with the
     run while steal-half stays stable.

   The sweep asserts the trade-off exists: at least one regime where the
   work-stealing runtime's p99 beats the hybrid's and at least one where
   it loses.  A refactor that makes stealing free (or useless) fails. *)
let a6_worksteal_regimes (config : Config.t) =
  Report.section
    "Ablation A6: work-stealing deques vs the other three runtimes across \
     arrival regimes";
  let service = Dist.Exponential { mean = Time.us 5 } in
  let cap = float_of_int n_cores *. 1e9 /. Dist.mean service in
  let drive_skewed engine rng submit =
    let i = ref 0 in
    Loadgen.poisson engine ~rng ~rate_rps:(0.2 *. cap) ~service
      ~duration:config.duration (fun pkt ->
        let cpu = !i mod 2 in
        incr i;
        submit ~cpu:(Some cpu) ~service:pkt.Skyloft_net.Packet.service)
  in
  let drive_bursty engine rng submit =
    let period = Time.us 200 and batch = 24 in
    for b = 0 to (config.duration / period) - 1 do
      ignore
        (Engine.at engine (b * period) (fun () ->
             for _ = 1 to batch do
               submit ~cpu:(Some (b mod n_cores)) ~service:(Dist.sample service rng)
             done))
    done
  in
  let regimes =
    [
      ("skewed", drive_skewed);
      ("bursty", drive_bursty);
      ("overload", poisson config ~rate:(0.9 *. cap) ~service);
    ]
  in
  let designs =
    [
      ("percpu", percpu_design);
      ("centralized", centralized_design);
      ( "hybrid",
        hybrid_design (fun h ->
            Printf.sprintf "%d mode switches" (Hybrid.mode_switches h)) );
      ( "worksteal",
        fun machine kmod ->
          let policy, steals =
            Skyloft_policies.Work_stealing.steal_half ~quantum ()
          in
          let rt =
            percpu machine kmod ~park:Skyloft_policies.Work_stealing.park policy
          in
          ( Percpu.runtime rt,
            fun () ->
              Printf.sprintf "%d steals (%d tasks), %d parks"
                steals.Skyloft_policies.Work_stealing.steals
                steals.stolen_tasks (Percpu.parks rt) ) );
    ]
  in
  let results =
    Parallel.grid ~jobs:config.jobs regimes designs (fun (_, drive) (name, build) ->
        design config ~horizon:(config.duration + Time.ms 60) name build drive)
  in
  Report.table
    ~header:[ "regime"; "design"; "served"; "p50 (us)"; "p99 (us)"; "notes" ]
    (List.concat_map
       (fun ((rname, _), cells) ->
         List.map
           (fun (name, summary, _, extra) ->
             [
               rname;
               name;
               string_of_int (Summary.requests summary);
               Report.us (Summary.latency_p summary 50.0);
               Report.us (Summary.latency_p summary 99.0);
               extra;
             ])
           cells)
       results);
  (* The asserted claim: the trade-off is real in both directions. *)
  let comparisons =
    List.map
      (fun ((rname, _), cells) ->
        let p99_of design =
          match List.find_opt (fun (d, _, _, _) -> String.equal d design) cells with
          | Some (_, summary, _, _) -> Summary.latency_p summary 99.0
          | None -> failwith "ablation A6: missing cell"
        in
        (rname, p99_of "worksteal", p99_of "hybrid"))
      results
  in
  let wins = List.filter (fun (_, ws, hy) -> ws < hy) comparisons in
  let losses = List.filter (fun (_, ws, hy) -> ws > hy) comparisons in
  if wins = [] then
    failwith
      "ablation A6: the work-stealing runtime never beat the hybrid in any \
       regime — decentralized steal-half should win somewhere";
  if losses = [] then
    failwith
      "ablation A6: the work-stealing runtime never lost to the hybrid — \
       stealing is not free; some regime must show its cost";
  List.iter
    (fun (rname, ws, hy) ->
      Report.note "%s: worksteal p99 %s vs hybrid %s — stealing %s" rname
        (Report.us ws) (Report.us hy)
        (if ws < hy then "wins" else if ws > hy then "loses" else "ties"))
    comparisons;
  Report.note
    "skew and bursts reward the dispatcher's zero-latency placement; high";
  Report.note
    "uniform load rewards keeping all 8 cores serving with no dispatcher"

let print config =
  a1_tick_frequency config;
  a2_percpu_vs_centralized config;
  a3_dispatcher_scalability config;
  a4_nic_modes config;
  a5_hybrid_vs_parents config;
  a6_worksteal_regimes config
