(* Behavioural tests for the work-stealing runtime — the per-CPU runtime
   under the steal-half policy: per-core deques, steal-half rebalancing,
   the persisted steal cursor, migration charges, and the park/unpark
   path with its steal-storm brake. *)

module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Coro = Skyloft_sim.Coro
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Costs = Skyloft_hw.Costs
module Kmod = Skyloft_kernel.Kmod
module App = Skyloft.App
module Task = Skyloft.Task
module Percpu = Skyloft.Percpu
module Work_stealing = Skyloft_policies.Work_stealing
module Rc = Skyloft.Runtime_core

let check = Alcotest.check

let make_rt ?(cores = 4) ?(timer_hz = 100_000) ?(preemption = true) ?quantum
    ?park () =
  let engine = Engine.create () in
  let machine =
    Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:8)
  in
  let kmod = Kmod.create machine in
  let policy, steals = Work_stealing.steal_half ?quantum () in
  let rt =
    Percpu.create machine kmod ~cores:(List.init cores Fun.id) ~timer_hz
      ~preemption ?park policy
  in
  let app = Rc.create_app (Percpu.runtime rt) ~name:"app" in
  (engine, rt, steals, app)

let spawn_timed engine rt app ?cpu name work finished =
  ignore
    (Rc.spawn (Percpu.runtime rt) app ~name ?cpu
       (Coro.Compute (work, fun () -> finished := Engine.now engine; Coro.Exit)))

(* Both tasks pinned to core 0: core 1 must steal one and they overlap. *)
let test_steals_to_idle_core () =
  let engine, rt, steals, app = make_rt ~cores:2 () in
  let a = ref 0 and b = ref 0 in
  spawn_timed engine rt app ~cpu:0 "a" (Time.ms 1) a;
  spawn_timed engine rt app ~cpu:0 "b" (Time.ms 1) b;
  Engine.run ~until:(Time.ms 5) engine;
  check Alcotest.bool "ran in parallel via stealing" true
    (!a > 0 && !b > 0 && abs (!a - !b) < Time.us 100);
  check Alcotest.bool "a steal was counted" true (steals.Work_stealing.steals >= 1)

(* Six tasks pinned to core 0 of a 2-core runtime: the idle core's first
   grab takes HALF the backlog in one steal, not one task. *)
let test_steal_half_bulk () =
  let engine, rt, steals, app = make_rt ~cores:2 () in
  let done_ = ref 0 in
  for i = 1 to 6 do
    ignore
      (Rc.spawn (Percpu.runtime rt) app ~name:(Printf.sprintf "t%d" i) ~cpu:0
         (Coro.Compute (Time.us 100, fun () -> incr done_; Coro.Exit)))
  done;
  Engine.run ~until:(Time.ms 5) engine;
  check Alcotest.int "all completed" 6 !done_;
  check Alcotest.bool "stole at least two tasks in one grab" true
    (steals.Work_stealing.stolen_tasks >= 2);
  (* bulk transfer: fewer grabs than migrated tasks *)
  check Alcotest.bool "steals < stolen tasks (bulk)" true
    (steals.Work_stealing.steals < steals.stolen_tasks)

(* Without a quantum a long task blocks its core; with one the tick
   preempts it while local work is queued (same punchline as Percpu). *)
let test_quantum_breaks_hol () =
  let engine, rt, _, app = make_rt ~cores:1 ~quantum:(Time.us 5) () in
  let short = ref 0 in
  ignore
    (Rc.spawn (Percpu.runtime rt) app ~name:"scan" ~cpu:0
       (Coro.compute_then_exit (Time.us 591)));
  Engine.at engine (Time.us 1) (fun () ->
      spawn_timed engine rt app ~cpu:0 "get" (Time.ns 950) short);
  Engine.run ~until:(Time.ms 2) engine;
  check Alcotest.bool "GET escaped within ~2 quanta" true
    (!short > 0 && !short < Time.us 25)

(* An idle core whose scans keep failing parks (the steal-storm brake) and
   pays the resume cost on its next dispatch. *)
let test_parks_when_scans_fail () =
  let engine, rt, steals, app =
    make_rt ~cores:1 ~park:(Time.us 5, Time.us 2) ()
  in
  let first = ref 0 and second = ref 0 in
  spawn_timed engine rt app ~cpu:0 "first" (Time.us 10) first;
  (* long gap: the core runs dry, fails its scans and parks *)
  Engine.at engine (Time.ms 1) (fun () ->
      spawn_timed engine rt app ~cpu:0 "second" (Time.us 10) second);
  Engine.run ~until:(Time.ms 2) engine;
  check Alcotest.bool "both completed" true (!first > 0 && !second > 0);
  check Alcotest.bool "the idle core parked" true (Percpu.parks rt >= 1);
  check Alcotest.bool "the parked core was woken" true
    (Percpu.unparks rt >= 1);
  check Alcotest.bool "failed scans were counted" true
    (steals.Work_stealing.steal_fails >= 1)

let test_no_park_when_disabled () =
  let engine, rt, _, app = make_rt ~cores:2 () in
  let a = ref 0 in
  spawn_timed engine rt app "a" (Time.us 10) a;
  Engine.run ~until:(Time.ms 2) engine;
  check Alcotest.int "no parks with parking off" 0 (Percpu.parks rt);
  check Alcotest.int "no unparks either" 0 (Percpu.unparks rt)

(* Steal probes and migrations are charged: a task stolen onto an idle
   core pays one remote cacheline for the probed victim and two for its
   own migration on top of the switch, while the local dispatch pays the
   switch alone.  Ticks are off so nothing else lands on either task. *)
let test_steals_are_charged () =
  let engine, rt, steals, app = make_rt ~cores:2 ~preemption:false () in
  let local = ref 0 and stolen = ref 0 in
  spawn_timed engine rt app ~cpu:0 "local" (Time.us 100) local;
  Engine.at engine (Time.us 1) (fun () ->
      spawn_timed engine rt app ~cpu:0 "stolen" (Time.us 10) stolen);
  Engine.run ~until:(Time.ms 1) engine;
  check Alcotest.int "one steal" 1 steals.Work_stealing.steals;
  check Alcotest.int "local dispatch pays the app switch" Costs.app_switch_ns
    (!local - Time.us 100);
  check Alcotest.int "stolen dispatch adds probe and migration"
    (Costs.app_switch_ns
    + Time.of_cycles Costs.remote_cacheline
    + Time.of_cycles (2 * Costs.remote_cacheline))
    (!stolen - Time.us 11)

let test_metrics_registered () =
  let engine, rt, steals, app = make_rt ~cores:2 () in
  let a = ref 0 and b = ref 0 in
  spawn_timed engine rt app ~cpu:0 "a" (Time.us 50) a;
  spawn_timed engine rt app ~cpu:0 "b" (Time.us 50) b;
  Engine.run ~until:(Time.ms 2) engine;
  (* The policy's counters ride the handle's registration, beside the
     shared family and the per-CPU mechanism's extras. *)
  let h = Percpu.runtime rt in
  Rc.add_metrics h (fun labels reg -> Work_stealing.register_metrics steals ~labels reg);
  let reg = Skyloft_obs.Registry.create () in
  Rc.register_metrics h reg;
  let samples = Skyloft_obs.Registry.snapshot reg in
  List.iter
    (fun name ->
      check Alcotest.bool (name ^ " present") true
        (Skyloft_obs.Registry.find samples name <> None))
    [
      "skyloft_percpu_steals_total";
      "skyloft_percpu_stolen_tasks_total";
      "skyloft_percpu_steal_fails_total";
      "skyloft_percpu_parks_total";
      "skyloft_percpu_unparks_total";
    ];
  check Alcotest.bool "shared family under the runtime label" true
    (Skyloft_obs.Registry.find samples
       ~labels:[ ("runtime", "percpu") ]
       "skyloft_runtime_preemptions_total"
    <> None);
  match Skyloft_obs.Registry.find samples "skyloft_percpu_steals_total" with
  | Some (Skyloft_obs.Registry.Counter n) ->
      check Alcotest.int "steals metric mirrors the counter"
        steals.Work_stealing.steals n
  | _ -> Alcotest.fail "steals metric not an int counter"

let suite =
  [
    Alcotest.test_case "worksteal: steals to idle core" `Quick
      test_steals_to_idle_core;
    Alcotest.test_case "worksteal: steal-half takes a batch" `Quick
      test_steal_half_bulk;
    Alcotest.test_case "worksteal: quantum breaks HoL" `Quick
      test_quantum_breaks_hol;
    Alcotest.test_case "worksteal: parks on failed scans" `Quick
      test_parks_when_scans_fail;
    Alcotest.test_case "worksteal: no parking when disabled" `Quick
      test_no_park_when_disabled;
    Alcotest.test_case "worksteal: steals are charged" `Quick
      test_steals_are_charged;
    Alcotest.test_case "worksteal: steal metrics registered" `Quick
      test_metrics_registered;
  ]
