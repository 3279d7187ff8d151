(* The machine-level core broker and the oversubscribed placements built
   on it: arbitration and conservation driven with synthetic tenants (no
   runtimes), then the tenant-fault defenses (staleness, hoarding,
   crash), then end-to-end placements of real runtimes with lossless
   request reconciliation. *)

module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Dist = Skyloft_sim.Dist
module Policy = Skyloft_alloc.Policy
module Allocator = Skyloft_alloc.Allocator
module Broker = Skyloft_alloc.Broker
module Plan = Skyloft_fault.Plan
module Scenario = Skyloft_scenario.Scenario
module Shape = Skyloft_scenario.Shape
module Arrival = Skyloft_scenario.Arrival
module Placement = Skyloft_scenario.Placement

let check = Alcotest.check

(* A synthetic tenant: the test scripts its whole-runtime congestion
   sample; [apply] records the allowance the broker drove. *)
type fake = {
  mutable runq : int;
  mutable delay : Time.t;
  mutable busy_rate : float;  (* fraction of granted cores kept busy *)
  mutable busy_acc : float;
  mutable allowance : int;
}

let fake () =
  { runq = 0; delay = 0; busy_rate = 0.0; busy_acc = 0.0; allowance = 0 }

let add broker ~id ?(kind = Policy.Lc) ?policy ~g ~b ~initial f =
  let interval = Allocator.interval in
  let policy =
    match policy with Some p -> p | None -> Policy.delay ()
  in
  f.allowance <- initial;
  Broker.register broker ~tenant:id
    ~name:(Printf.sprintf "t%d" id)
    ~kind ~policy
    ~bounds:{ Allocator.guaranteed = g; burstable = b }
    ~initial
    ~sample:(fun () ->
      f.busy_acc <-
        f.busy_acc
        +. f.busy_rate
           *. float_of_int (max 1 f.allowance)
           *. float_of_int interval;
      {
        Allocator.runq_len = f.runq;
        oldest_delay = f.delay;
        busy_ns = int_of_float f.busy_acc;
      })
    ~apply:(fun ~granted ~delta:_ ->
      f.allowance <- granted;
      0)

let make ?config ~capacity () =
  let engine = Engine.create () in
  let broker = Broker.create ~engine ~capacity ?config () in
  (engine, broker)

(* Advance virtual time by one interval, then run one control round —
   what [Broker.start]'s periodic loop does, under test control. *)
let tick_n engine broker n =
  for _ = 1 to n do
    Engine.run ~until:(Engine.now engine + Allocator.interval) engine;
    Broker.tick broker
  done

let congested f =
  f.runq <- 4;
  f.delay <- Time.us 20;
  f.busy_rate <- 1.0

let grant_from_pool () =
  let engine, broker = make ~capacity:8 () in
  let f = fake () in
  add broker ~id:0 ~g:1 ~b:6 ~initial:1 f;
  congested f;
  tick_n engine broker 1;
  check Alcotest.int "granted grew from the pool" 5 (Broker.granted broker ~tenant:0);
  check Alcotest.int "allowance driven" 5 f.allowance;
  check Alcotest.int "free pool shrank" 3 (Broker.free_cores broker);
  check Alcotest.bool "grant counted" true (Broker.grants broker >= 1)

let lc_steals_from_be () =
  let engine, broker = make ~capacity:4 () in
  let be = fake () and lc = fake () in
  add broker ~id:0 ~kind:Policy.Be ~policy:(Policy.static ()) ~g:1 ~b:4
    ~initial:3 be;
  add broker ~id:1 ~g:1 ~b:4 ~initial:1 lc;
  congested lc;
  be.busy_rate <- 1.0;
  tick_n engine broker 1;
  check Alcotest.int "BE clamped to its floor" 1 (Broker.granted broker ~tenant:0);
  check Alcotest.int "LC took the stolen cores" 3 (Broker.granted broker ~tenant:1);
  check Alcotest.bool "steal counted as reclaim" true (Broker.reclaims broker >= 1);
  check Alcotest.int "conservation" 4
    (Broker.granted broker ~tenant:0 + Broker.granted broker ~tenant:1)

let idle_tenant_yields () =
  let engine, broker = make ~capacity:8 () in
  let f = fake () in
  add broker ~id:0 ~g:1 ~b:6 ~initial:4 f;
  tick_n engine broker 3;
  check Alcotest.int "idle tenant shed to near-floor" 1
    (Broker.granted broker ~tenant:0);
  check Alcotest.bool "yield counted" true (Broker.yields broker >= 1);
  check Alcotest.int "pool refilled" 7 (Broker.free_cores broker)

let floor_never_reclaimed () =
  let engine, broker = make ~capacity:4 () in
  let be = fake () and lc = fake () in
  add broker ~id:0 ~kind:Policy.Be ~policy:(Policy.static ()) ~g:2 ~b:4
    ~initial:2 be;
  add broker ~id:1 ~g:1 ~b:4 ~initial:1 lc;
  congested lc;
  be.busy_rate <- 1.0;
  tick_n engine broker 5;
  check Alcotest.bool "BE never below its guaranteed floor" true
    (Broker.granted broker ~tenant:0 >= 2)

let quick_config = { Broker.degrade_after = 3; hoard_cap = 5; quarantine_ticks = 4 }

let stale_degrade_and_recover () =
  let engine, broker = make ~config:quick_config ~capacity:8 () in
  let f = fake () in
  add broker ~id:0 ~g:1 ~b:6 ~initial:4 f;
  (* Frozen signal: queue claimed non-empty, busy never advances. *)
  f.runq <- 2;
  f.busy_rate <- 0.0;
  tick_n engine broker 3;
  check Alcotest.string "degraded on frozen signal" "stale"
    (Broker.health_name (Broker.health broker ~tenant:0));
  check Alcotest.int "clamped to floor" 1 (Broker.granted broker ~tenant:0);
  check Alcotest.int "degradation counted" 1 (Broker.degradations broker);
  (* Signal moves again: recovery on the next round. *)
  f.busy_rate <- 0.5;
  tick_n engine broker 1;
  check Alcotest.string "recovered when the signal moved" "healthy"
    (Broker.health_name (Broker.health broker ~tenant:0));
  check Alcotest.bool "recover event logged" true
    (List.exists
       (fun (e : Allocator.event) -> e.Allocator.action = Allocator.Recover)
       (Broker.events broker))

let zero_floor_stays_stale () =
  let engine, broker = make ~config:quick_config ~capacity:8 () in
  let f = fake () in
  add broker ~id:0 ~g:0 ~b:6 ~initial:2 f;
  f.runq <- 2;
  f.busy_rate <- 0.0;
  tick_n engine broker 20;
  (* A zero-guarantee tenant clamped to 0 cores must not oscillate
     Degrade/Recover while frozen: one degradation, still stale. *)
  check Alcotest.string "still stale" "stale"
    (Broker.health_name (Broker.health broker ~tenant:0));
  check Alcotest.int "exactly one degradation" 1 (Broker.degradations broker);
  check Alcotest.int "zero cores held" 0 (Broker.granted broker ~tenant:0)

let hoard_quarantine_and_release () =
  let engine, broker = make ~config:quick_config ~capacity:4 () in
  let hog = fake () and victim = fake () in
  add broker ~id:0 ~g:1 ~b:4 ~initial:3 hog;
  add broker ~id:1 ~g:1 ~b:4 ~initial:1 victim;
  (* Both claim congestion; the pool is dry; the hog sits above its floor
     while the victim starves at its own — the hoard signature. *)
  congested hog;
  congested victim;
  tick_n engine broker 5;
  check Alcotest.string "hog quarantined" "quarantined"
    (Broker.health_name (Broker.health broker ~tenant:0));
  check Alcotest.int "hog clamped to floor" 1 (Broker.granted broker ~tenant:0);
  check Alcotest.int "quarantine counted" 1 (Broker.quarantines broker);
  tick_n engine broker 1;
  check Alcotest.bool "victim grew into the reclaimed cores" true
    (Broker.granted broker ~tenant:1 > 1);
  (* Behave from now on: served out, released, score reset. *)
  hog.runq <- 0;
  hog.delay <- 0;
  hog.busy_rate <- 0.0;
  victim.runq <- 0;
  victim.delay <- 0;
  tick_n engine broker 6;
  check Alcotest.string "released after serving quarantine" "healthy"
    (Broker.health_name (Broker.health broker ~tenant:0));
  check Alcotest.int "release counted" 1 (Broker.releases broker);
  check Alcotest.int "hoard score reset" 0 (Broker.hoard_score broker ~tenant:0)

let crash_reclaims_floor () =
  let engine, broker = make ~capacity:8 () in
  let f = fake () and other = fake () in
  add broker ~id:0 ~g:2 ~b:6 ~initial:4 f;
  add broker ~id:1 ~g:1 ~b:6 ~initial:1 other;
  tick_n engine broker 1;
  let held = Broker.granted broker ~tenant:0 in
  Broker.crash broker ~tenant:0;
  check Alcotest.string "crashed" "crashed"
    (Broker.health_name (Broker.health broker ~tenant:0));
  check Alcotest.int "everything reclaimed, floor included" 0
    (Broker.granted broker ~tenant:0);
  check Alcotest.int "allowance driven to zero" 0 f.allowance;
  check Alcotest.bool "pool refilled" true (Broker.free_cores broker >= held);
  Broker.crash broker ~tenant:0;
  check Alcotest.int "idempotent" 1 (Broker.crashes broker);
  (* The dead tenant is out of arbitration: ticks keep running and the
     invariant checker accepts its below-floor zero grant. *)
  congested other;
  tick_n engine broker 3;
  check Alcotest.int "still zero" 0 (Broker.granted broker ~tenant:0);
  check Alcotest.(float 1e-9) "fairness excludes the crashed tenant" 1.0
    (Broker.fairness broker)

let fairness_index () =
  let engine, broker = make ~capacity:8 () in
  let a = fake () and b = fake () in
  add broker ~id:0 ~g:1 ~b:4 ~initial:2 a;
  add broker ~id:1 ~g:1 ~b:4 ~initial:2 b;
  a.busy_rate <- 1.0;
  b.busy_rate <- 1.0;
  a.runq <- 1;
  b.runq <- 1;
  tick_n engine broker 10;
  check Alcotest.(float 1e-9) "equal shares are perfectly fair" 1.0
    (Broker.fairness broker);
  (* Skew the holdings: fairness strictly drops. *)
  let engine2, broker2 = make ~capacity:8 () in
  let c = fake () and d = fake () in
  add broker2 ~id:0 ~g:1 ~b:6 ~initial:6 c;
  add broker2 ~id:1 ~g:1 ~b:6 ~initial:1 d;
  c.busy_rate <- 1.0;
  d.busy_rate <- 1.0;
  c.runq <- 1;
  d.runq <- 1;
  tick_n engine2 broker2 10;
  check Alcotest.bool "skewed shares are unfair" true
    (Broker.fairness broker2 < 0.9)

let register_validation () =
  let _, broker = make ~capacity:4 () in
  let f = fake () in
  let reg ?(id = 0) ~g ~b ~initial () =
    add broker ~id ~g ~b ~initial (fake ())
  in
  Alcotest.check_raises "burstable over capacity"
    (Invalid_argument "Broker.register: burstable exceeds the core pool")
    (fun () -> reg ~g:1 ~b:5 ~initial:1 ());
  Alcotest.check_raises "initial outside bounds"
    (Invalid_argument "Broker.register: initial grant outside bounds")
    (fun () -> reg ~g:2 ~b:4 ~initial:1 ());
  add broker ~id:0 ~g:1 ~b:4 ~initial:3 f;
  Alcotest.check_raises "duplicate tenant"
    (Invalid_argument "Broker.register: tenant already registered") (fun () ->
      reg ~id:0 ~g:1 ~b:2 ~initial:1 ());
  Alcotest.check_raises "pool exhausted"
    (Invalid_argument "Broker.register: initial grants exceed the core pool")
    (fun () -> reg ~id:1 ~g:2 ~b:2 ~initial:2 ())

(* ---- placements: real runtimes under the broker ------------------------- *)

let light_shape = Shape.Single (Dist.Exponential { mean = Time.us 5 })

let mixed_tenants ?(rate = 100_000.0) () =
  [
    Placement.tenant ~name:"percpu-a" ~runtime:Scenario.Percpu ~guaranteed:1
      ~burstable:2 ~shape:light_shape
      ~arrival:(Arrival.Poisson { rate_rps = rate })
      ();
    Placement.tenant ~name:"central-b" ~runtime:Scenario.Centralized
      ~guaranteed:1 ~burstable:2 ~shape:light_shape
      ~arrival:(Arrival.Poisson { rate_rps = rate })
      ();
    Placement.tenant ~name:"hybrid-c" ~runtime:Scenario.Hybrid ~guaranteed:1
      ~burstable:2 ~shape:light_shape
      ~arrival:(Arrival.Poisson { rate_rps = rate })
      ();
  ]

let placement_reconciles () =
  let r =
    Placement.run ~seed:7 ~name:"smoke" ~capacity:4 ~requests:120
      (mixed_tenants ())
  in
  List.iter
    (fun t ->
      check Alcotest.int
        (Printf.sprintf "%s lossless accounting" t.Placement.t_name)
        0 (Placement.lost t);
      check Alcotest.bool
        (Printf.sprintf "%s completed work" t.Placement.t_name)
        true
        (t.Placement.completed > 0))
    r.Placement.tenants;
  check Alcotest.bool "fairness in (0, 1]" true
    (r.Placement.fairness > 0.0 && r.Placement.fairness <= 1.0);
  check Alcotest.int "no crashes" 0 r.Placement.crashes

let placement_deterministic () =
  let digest () =
    Placement.digest_string
      (Placement.run ~seed:11 ~name:"det" ~capacity:4 ~requests:80
         (mixed_tenants ()))
  in
  check Alcotest.string "same seed, same digest" (digest ()) (digest ())

let placement_crash_fault () =
  let faults =
    [ Plan.tenant_crash ~window:(Plan.window ~start:(Time.us 300) ()) ~tenant:1 () ]
  in
  let r =
    Placement.run ~seed:9 ~faults ~name:"crash" ~capacity:4 ~requests:200
      (mixed_tenants ())
  in
  let victim = List.nth r.Placement.tenants 1 in
  check Alcotest.string "victim marked crashed" "crashed"
    victim.Placement.final_health;
  check Alcotest.int "victim still lossless (retries settle as give-ups)" 0
    (Placement.lost victim);
  check Alcotest.bool "victim gave up on post-crash requests" true
    (victim.Placement.gave_up > 0);
  check Alcotest.int "crash reclaimed the floor" 0 victim.Placement.final_granted;
  List.iteri
    (fun i t ->
      if i <> 1 then
        check Alcotest.int
          (Printf.sprintf "%s unaffected accounting" t.Placement.t_name)
          0 (Placement.lost t))
    r.Placement.tenants

let placement_stale_fault () =
  let faults =
    [
      Plan.tenant_stale
        ~window:(Plan.window ~start:(Time.us 200) ~stop:(Time.us 900) ())
        ~tenant:0 ();
    ]
  in
  let r =
    Placement.run ~seed:13 ~faults ~name:"stale" ~capacity:4 ~requests:200
      (mixed_tenants ())
  in
  check Alcotest.bool "stale tenant was degraded" true
    (r.Placement.degradations >= 1);
  let victim = List.hd r.Placement.tenants in
  check Alcotest.string "recovered after the window" "healthy"
    victim.Placement.final_health;
  List.iter
    (fun t -> check Alcotest.int "lossless" 0 (Placement.lost t))
    r.Placement.tenants

let placement_hoard_fault () =
  let broker =
    { (Broker.default_config ()) with Broker.hoard_cap = 10; quarantine_ticks = 100 }
  in
  let faults =
    [ Plan.tenant_hoard ~window:(Plan.window ~start:(Time.us 200) ()) ~tenant:0 () ]
  in
  let r =
    Placement.run ~seed:17 ~faults ~broker ~name:"hoard" ~capacity:4
      ~requests:300
      (mixed_tenants ~rate:150_000.0 ())
  in
  check Alcotest.bool "hoarder was quarantined" true
    (r.Placement.quarantines >= 1);
  List.iter
    (fun t -> check Alcotest.int "lossless" 0 (Placement.lost t))
    r.Placement.tenants

(* Every other placement runs single-stage requests; this fleet puts a
   chain, a fan-out, a mix and a single stage on the four runtimes, so
   the retry/deadline path runs multi-stage shapes.  The digests pin the
   draw order: a chain stage drawn at the previous stage's completion,
   fan-out stages drawn together, one pick per mixed request. *)
let stage_tenants () =
  let stage = Dist.Exponential { mean = Time.us 3 } in
  let tenant ~name ~runtime shape =
    Placement.tenant ~name ~runtime ~guaranteed:1 ~burstable:2 ~shape
      ~arrival:(Arrival.Poisson { rate_rps = 60_000.0 })
      ()
  in
  [
    tenant ~name:"chain" ~runtime:Scenario.Percpu
      (Shape.Chain [ stage; stage; stage ]);
    tenant ~name:"fanout" ~runtime:Scenario.Centralized
      (Shape.Fanout { width = 3; stage });
    tenant ~name:"mix" ~runtime:Scenario.Hybrid
      (Shape.Mix
         [
           (0.5, Shape.Single stage);
           (0.3, Shape.Chain [ stage; stage ]);
           (0.2, Shape.Fanout { width = 2; stage });
         ]);
    tenant ~name:"single" ~runtime:Scenario.Worksteal (Shape.Single stage);
  ]

let placement_multi_stage () =
  let run faults =
    let r =
      Placement.run ~seed:19 ~faults ~name:"stages" ~capacity:6 ~requests:200
        (stage_tenants ())
    in
    List.iter
      (fun t ->
        check Alcotest.int
          (Printf.sprintf "%s lossless accounting" t.Placement.t_name)
          0 (Placement.lost t))
      r.Placement.tenants;
    (r, Digest.to_hex (Digest.string (Placement.digest_string r)))
  in
  let _, healthy = run [] in
  check Alcotest.string "healthy digest" "71383f07ec4be3d04821ced9928c2b97" healthy;
  let r, crashed =
    run
      [ Plan.tenant_crash ~window:(Plan.window ~start:(Time.ms 1) ()) ~tenant:1 () ]
  in
  let victim = List.nth r.Placement.tenants 1 in
  check Alcotest.bool "fan-out victim gave up on post-crash requests" true
    (victim.Placement.gave_up > 0);
  check Alcotest.string "crash digest" "09a5bed13a336be57990f03342e4b3d1" crashed

let suite =
  [
    Alcotest.test_case "grant from pool" `Quick grant_from_pool;
    Alcotest.test_case "LC steals from BE above floor" `Quick lc_steals_from_be;
    Alcotest.test_case "idle tenant yields" `Quick idle_tenant_yields;
    Alcotest.test_case "floor never reclaimed" `Quick floor_never_reclaimed;
    Alcotest.test_case "stale: degrade then recover" `Quick
      stale_degrade_and_recover;
    Alcotest.test_case "zero-floor tenant cannot oscillate" `Quick
      zero_floor_stays_stale;
    Alcotest.test_case "hoard: quarantine then release" `Quick
      hoard_quarantine_and_release;
    Alcotest.test_case "crash reclaims the floor" `Quick crash_reclaims_floor;
    Alcotest.test_case "fairness index" `Quick fairness_index;
    Alcotest.test_case "register validation" `Quick register_validation;
    Alcotest.test_case "placement reconciles losslessly" `Quick
      placement_reconciles;
    Alcotest.test_case "placement deterministic" `Quick placement_deterministic;
    Alcotest.test_case "placement crash fault" `Quick placement_crash_fault;
    Alcotest.test_case "placement stale fault" `Quick placement_stale_fault;
    Alcotest.test_case "placement hoard fault" `Quick placement_hoard_fault;
    Alcotest.test_case "placement multi-stage shapes" `Quick
      placement_multi_stage;
  ]
