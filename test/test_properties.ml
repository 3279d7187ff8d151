(* Property-based invariants of the scheduling runtimes: for random
   workloads under every policy, work is conserved, everything completes,
   CPU accounting is bounded, latency is at least the service time, and
   execution is deterministic in the seed. *)

module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Coro = Skyloft_sim.Coro
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Kmod = Skyloft_kernel.Kmod
module Summary = Skyloft_stats.Summary
module Percpu = Skyloft.Percpu
module Hybrid = Skyloft.Hybrid
module App = Skyloft.App
module Rc = Skyloft.Runtime_core

let qtest = QCheck_alcotest.to_alcotest

(* A workload is a list of (spawn time, service time). *)
let workload_gen =
  QCheck.(
    list_of_size (Gen.int_range 1 60)
      (pair (int_range 0 500_000) (int_range 100 100_000)))

type outcome = {
  completed : int;
  busy_ns : int;
  end_time : int;
  p50 : int;
  p100 : int;
  preemptions : int;
}

(* (name, park, policy): steal-half runs with Shenango-style parking, as
   the work-stealing runtime does, so its storm brake and migration
   charges are exercised too. *)
let policies =
  [
    ("fifo", None, fun () -> Skyloft_policies.Fifo.create ());
    ("rr", None, fun () -> Skyloft_policies.Rr.create ~slice:(Time.us 20) ());
    ("cfs", None, Skyloft_policies.Fair_percpu.cfs);
    ("eevdf", None, Skyloft_policies.Fair_percpu.eevdf);
    ("ws", None, fun () -> Skyloft_policies.Work_stealing.create ());
    ( "ws-preempt",
      None,
      fun () -> Skyloft_policies.Work_stealing.create ~quantum:(Time.us 10) () );
    ( "steal-half",
      Some Skyloft_policies.Work_stealing.park,
      fun () -> fst (Skyloft_policies.Work_stealing.steal_half ()) );
    ( "steal-half-preempt",
      Some Skyloft_policies.Work_stealing.park,
      fun () ->
        fst (Skyloft_policies.Work_stealing.steal_half ~quantum:(Time.us 10) ())
    );
  ]

let run_percpu ?park ctor workload =
  let engine = Engine.create ~seed:1 () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:4) in
  let kmod = Kmod.create machine in
  let rt =
    Percpu.runtime
      (Percpu.create machine kmod ~cores:[ 0; 1; 2 ] ~timer_hz:100_000 ?park (ctor ()))
  in
  let app = Rc.create_app rt ~name:"w" in
  List.iteri
    (fun i (at, service) ->
      ignore
        (Engine.at engine at (fun () ->
             ignore
               (Rc.spawn rt app
                  ~name:(Printf.sprintf "t%d" i)
                  ~service (Coro.compute_then_exit service)))))
    workload;
  (* generous drain: total work serialized + spawn horizon *)
  let horizon =
    500_000 + List.fold_left (fun acc (_, s) -> acc + s) 0 workload + Time.ms 50
  in
  Engine.run ~until:horizon engine;
  {
    completed = app.App.completed;
    busy_ns = app.App.busy_ns;
    end_time = horizon;
    p50 = Summary.latency_p app.App.summary 50.0;
    p100 = Summary.latency_p app.App.summary 100.0;
    preemptions = Rc.preemptions rt;
  }

let total_service workload = List.fold_left (fun acc (_, s) -> acc + s) 0 workload

let prop_all_complete (name, park, ctor) =
  QCheck.Test.make
    ~name:(Printf.sprintf "percpu/%s: every task completes" name)
    ~count:30 workload_gen
    (fun workload ->
      let o = run_percpu ?park ctor workload in
      o.completed = List.length workload)

let prop_work_conserved (name, park, ctor) =
  QCheck.Test.make
    ~name:(Printf.sprintf "percpu/%s: busy time covers the work" name)
    ~count:30 workload_gen
    (fun workload ->
      let o = run_percpu ?park ctor workload in
      (* busy time includes switch costs, so it is at least the pure work
         and at most cores x horizon *)
      o.busy_ns >= total_service workload && o.busy_ns <= 3 * o.end_time)

let prop_latency_at_least_service (name, park, ctor) =
  QCheck.Test.make
    ~name:(Printf.sprintf "percpu/%s: latency >= service" name)
    ~count:30 workload_gen
    (fun workload ->
      let o = run_percpu ?park ctor workload in
      (* the fastest request still had to do its own work (histogram
         bucketing gives ~2% slack) *)
      List.length workload = 0
      || float_of_int o.p100
         >= 0.95
            *. float_of_int (List.fold_left (fun acc (_, s) -> min acc s) max_int workload))

let prop_deterministic (name, park, ctor) =
  QCheck.Test.make
    ~name:(Printf.sprintf "percpu/%s: deterministic" name)
    ~count:15 workload_gen
    (fun workload ->
      let a = run_percpu ?park ctor workload
      and b = run_percpu ?park ctor workload in
      a = b)

let prop_fifo_never_preempts =
  QCheck.Test.make ~name:"percpu/fifo: zero preemptions" ~count:30 workload_gen
    (fun workload ->
      let o = run_percpu (fun () -> Skyloft_policies.Fifo.create ()) workload in
      o.preemptions = 0)

let run_centralized workload =
  let engine = Engine.create ~seed:1 () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:8) in
  let kmod = Kmod.create machine in
  let rt =
    Hybrid.create machine kmod ~dispatcher_core:0 ~worker_cores:[ 1; 2; 3 ]
      ~quantum:(Time.us 20) ~adaptive:false
      (Skyloft_policies.Shinjuku.create ())
  in
  let app = Rc.create_app (Hybrid.runtime rt) ~name:"lc" in
  List.iteri
    (fun i (at, service) ->
      ignore
        (Engine.at engine at (fun () ->
             ignore
               (Rc.spawn (Hybrid.runtime rt) app
                  ~name:(Printf.sprintf "t%d" i)
                  ~service (Coro.compute_then_exit service)))))
    workload;
  let horizon = 500_000 + total_service workload + Time.ms 50 in
  Engine.run ~until:horizon engine;
  (app.App.completed, Hybrid.queue_length rt)

let prop_centralized_all_complete =
  QCheck.Test.make ~name:"centralized: every request completes, queue drains"
    ~count:30 workload_gen
    (fun workload ->
      let completed, queued = run_centralized workload in
      completed = List.length workload && queued = 0)

(* ---- One conformance property over the runtime handle ------------------- *)

module Scenario = Skyloft_scenario.Scenario
module Task = Skyloft.Task
module Sched_ops = Skyloft.Sched_ops

(* Random operation sequences, driven through the same code against every
   configuration {!Scenario.build} makes: spawn (pinned where the
   mechanism can pin, some tasks blocking mid-service, some with a
   deadline), kill, wakeup of blocked tasks, a page fault on a worker,
   and broker allowance shrink and grow, attaching a best-effort app
   (once; later attaches are no-ops), with a random stretch of simulated
   time after each step.  After every step no task is on two units, and
   the idle mask and the maintained BE-occupancy, busy-time, running-unit
   and LC queue counters agree with a full recount. *)
type op =
  | Spawn of { pin : int; service : int; block : bool; deadline : int option }
  | Kill of int
  | Wake of int
  | Allow of int
  | Fault of int
  | Attach_be
  | Run of int

let conformance_workers = 3

let op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 5,
          map
            (fun (pin, service, block, deadline) ->
              Spawn { pin; service; block; deadline })
            (quad (int_bound (conformance_workers - 1)) (int_range 1_000 60_000) bool
               (opt (int_range 5_000 200_000))) );
        (1, map (fun i -> Kill i) nat);
        (2, map (fun i -> Wake i) nat);
        (1, map (fun n -> Allow n) (int_bound conformance_workers));
        (1, map (fun w -> Fault w) (int_bound (conformance_workers - 1)));
        (1, return Attach_be);
        (2, map (fun d -> Run d) (int_range 0 50_000));
      ])

let ops_arb =
  QCheck.make
    ~print:(fun ops -> Printf.sprintf "%d ops" (List.length ops))
    QCheck.Gen.(list_size (int_range 1 40) op_gen)

(* No task is current on two units at once. *)
let no_task_on_two_units (rt : Rc.t) =
  let ids =
    Array.to_list rt.Rc.dispatch.Rc.d_units
    |> List.filter_map (fun (ex : Rc.exec) ->
           Option.map (fun (t : Task.t) -> t.Task.id) ex.Rc.current)
  in
  List.length (List.sort_uniq compare ids) = List.length ids

(* The idle mask agrees with a full scan of the units: a unit is idle
   iff it runs nothing and the broker allows it, the first idle core is
   the first such unit in [d_units] order, and a core that is not a unit
   (the dispatcher's, one past the machine) is never idle. *)
let idle_mask_agrees (rt : Rc.t) ~machine_cores =
  let view = Rc.view rt in
  let units = rt.Rc.dispatch.Rc.d_units in
  let scan (ex : Rc.exec) = ex.Rc.current = None && not (Rc.unit_capped rt ex) in
  let unit_core c = Array.exists (fun (ex : Rc.exec) -> ex.Rc.exec_core = c) units in
  Array.for_all (fun (ex : Rc.exec) -> view.Sched_ops.is_idle ex.Rc.exec_core = scan ex) units
  && view.Sched_ops.pick_idle ()
     = Option.map (fun (ex : Rc.exec) -> ex.Rc.exec_core) (Array.find_opt scan units)
  && List.for_all
       (fun c -> unit_core c || not (view.Sched_ops.is_idle c))
       (List.init (machine_cores + 2) (fun c -> c - 1))

(* The maintained counters agree with the folds they replaced: BE
   occupancy with a scan of the units (running BE or a BE assignment in
   flight), [total_busy_ns] with the sum over the apps, and [lc_busy_ns]
   with that sum less the BE app plus the other apps' in-flight
   segments.  The LC queue count agrees with the LC tasks: every runnable
   one (killed while queued included, until discarded) is queued unless
   it is an assignment in flight toward a unit. *)
let counters_agree (rt : Rc.t) (lc_tasks : Task.t array) =
  let units = rt.Rc.dispatch.Rc.d_units in
  let be_id = match rt.Rc.be_app with Some app -> app.App.id | None -> -1 in
  let runs_be (ex : Rc.exec) =
    match ex.Rc.current with Some task -> task.Task.app = be_id | None -> false
  in
  let count p = Array.fold_left (fun acc ex -> if p ex then acc + 1 else acc) 0 units in
  let running = count runs_be in
  let incoming = count (fun ex -> be_id >= 0 && ex.Rc.incoming = be_id) in
  let occupied = count (fun ex -> runs_be ex || (be_id >= 0 && ex.Rc.incoming = be_id)) in
  let recorded =
    List.fold_left (fun acc (a : App.t) -> acc + a.App.busy_ns) rt.Rc.daemon.App.busy_ns
      (Rc.apps rt)
  in
  let be_recorded = match rt.Rc.be_app with Some app -> app.App.busy_ns | None -> 0 in
  let lc_in_flight =
    Array.fold_left
      (fun acc (ex : Rc.exec) ->
        match ex.Rc.current with
        | Some task when task.Task.app <> be_id -> acc + max 0 (Rc.now rt - ex.Rc.busy_from)
        | Some _ | None -> acc)
      0 units
  in
  let lc_runnable =
    Array.fold_left
      (fun acc (task : Task.t) -> if task.Task.state = Task.Runnable then acc + 1 else acc)
      0 lc_tasks
  in
  let lc_incoming = count (fun ex -> ex.Rc.incoming >= 0 && ex.Rc.incoming <> be_id) in
  rt.Rc.be_running = running
  && rt.Rc.be_incoming = incoming
  && Rc.be_occupancy rt = occupied
  && Rc.total_busy_ns rt = recorded
  && Rc.lc_busy_ns rt = recorded - be_recorded + lc_in_flight
  && rt.Rc.lc_queued = lc_runnable - lc_incoming

(* The running units' counts and [busy_from] sums kept per app and in
   total agree with the scan of the units they replaced, and so does the
   in-flight busy time the broker's congestion sample adds to
   [total_busy_ns] (every running unit, busy since its [busy_from]). *)
let running_sums_agree (rt : Rc.t) =
  let units = rt.Rc.dispatch.Rc.d_units in
  let scan keep =
    Array.fold_left
      (fun (n, from) (ex : Rc.exec) ->
        match ex.Rc.current with
        | Some task when keep task.Task.app -> (n + 1, from + ex.Rc.busy_from)
        | Some _ | None -> (n, from))
      (0, 0) units
  in
  let kept id = (rt.Rc.running_units.(id), rt.Rc.running_from.(id)) in
  let n, from = scan (fun _ -> true) in
  let in_flight =
    Array.fold_left
      (fun acc (ex : Rc.exec) ->
        match ex.Rc.current with
        | Some _ -> acc + max 0 (Rc.now rt - ex.Rc.busy_from)
        | None -> acc)
      0 units
  in
  List.for_all (fun id -> scan (( = ) id) = kept id) (List.init rt.Rc.next_app_id Fun.id)
  && (rt.Rc.running_total, rt.Rc.running_from_total) = (n, from)
  && (Rc.congestion rt).Skyloft_alloc.Allocator.busy_ns = Rc.total_busy_ns rt + in_flight

let conformance runtime ops =
  let engine = Engine.create ~seed:1 () in
  let machine_cores = conformance_workers + Scenario.dispatcher_cores runtime in
  let machine =
    Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:machine_cores)
  in
  let rt =
    Scenario.build machine (Kmod.create machine) ~first_core:0
      ~cores:conformance_workers ~quantum:(Time.us 20) ~timer_hz:100_000 runtime
  in
  let pinnable = rt.Rc.dispatch.Rc.d_pinnable in
  let app = Rc.create_app rt ~name:"conformance" in
  let be = Rc.create_app rt ~name:"batch" in
  let tasks = ref [||] in
  let nth i = if !tasks = [||] then None else Some !tasks.(i mod Array.length !tasks) in
  let until = ref 0 in
  let wake_blocked (task : Task.t) =
    if task.Task.state = Task.Blocked then Rc.wakeup rt task
  in
  let step = function
    | Spawn { pin; service; block; deadline } ->
        let body =
          if block then
            Coro.Compute
              ( service / 2,
                fun () -> Coro.Block (fun () -> Coro.compute_then_exit (service / 2)) )
          else Coro.compute_then_exit service
        in
        let cpu = if pinnable then Some pin else None in
        let task = Rc.spawn rt app ~name:"t" ?cpu ~service ?deadline body in
        tasks := Array.append !tasks [| task |]
    | Kill i -> Option.iter (Rc.kill rt) (nth i)
    | Wake i -> Option.iter wake_blocked (nth i)
    | Allow n -> Rc.set_core_allowance rt n
    | Fault w ->
        let core = w + Scenario.dispatcher_cores runtime in
        ignore (Rc.fault_current rt ~core ~duration:(Time.us 30))
    | Attach_be ->
        if rt.Rc.be_app = None then
          Rc.attach_be_app rt be ~chunk:(Time.us 20) ~workers:2
            ~alloc:
              {
                (Skyloft_alloc.Allocator.default_config ()) with
                Skyloft_alloc.Allocator.policy = Skyloft_alloc.Policy.delay ();
                be_burstable = Some 2;
              }
    | Run d ->
        until := !until + d;
        Engine.run ~until:!until engine
  in
  let consistent () =
    no_task_on_two_units rt && idle_mask_agrees rt ~machine_cores && counters_agree rt !tasks
    && running_sums_agree rt
  in
  let holds = ref (consistent ()) in
  List.iter
    (fun op ->
      step op;
      if not (consistent ()) then holds := false)
    ops;
  let alive () =
    Array.fold_left
      (fun acc (task : Task.t) ->
        if task.Task.state <> Task.Exited && not task.Task.killed then acc + 1 else acc)
      0 !tasks
  in
  let conserved () =
    Array.length !tasks = app.App.completed + Rc.deadline_drops rt + alive ()
    && app.App.tasks_alive = alive ()
  in
  (* Mid-run conservation, then lift the gate, wake the sleepers and
     drain: nothing may be lost or stuck. *)
  let mid = conserved () in
  Rc.set_core_allowance rt max_int;
  (* each body blocks at most once, so two wake-and-drain rounds reach
     every sleeper, including one still queued at the first round *)
  List.iter
    (fun round ->
      Array.iter wake_blocked !tasks;
      Engine.run ~until:(!until + (round * Time.ms 10)) engine)
    [ 1; 2 ];
  !holds && mid && consistent () && conserved () && alive () = 0

let prop_handle_conformance =
  QCheck.Test.make ~name:"handle: one op sequence, every configuration conforms"
    ~count:50 ops_arb
    (fun ops -> List.for_all (fun runtime -> conformance runtime ops) Scenario.runtimes)

(* ---- Histogram sharding ------------------------------------------------ *)

module Histogram = Skyloft_stats.Histogram

(* The correctness base for [-j]-merged scale cells: recording values
   into per-shard histograms and merging the shards must be count-exact
   and percentile-equal to recording everything into one central
   histogram — regardless of how values are split across shards. *)
let prop_histogram_shard_merge =
  QCheck.Test.make ~name:"Histogram.merge_into: shards == central" ~count:100
    QCheck.(
      pair (int_range 1 8)
        (list_of_size (Gen.int_range 1 400) (int_range 0 50_000_000)))
    (fun (shards, values) ->
      let central = Histogram.create () in
      let shard = Array.init shards (fun _ -> Histogram.create ()) in
      List.iteri
        (fun i v ->
          Histogram.record central v;
          Histogram.record shard.(i mod shards) v)
        values;
      let merged = Histogram.create () in
      Array.iter (fun src -> Histogram.merge_into ~src ~dst:merged) shard;
      Histogram.count merged = Histogram.count central
      && Histogram.min_value merged = Histogram.min_value central
      && Histogram.max_value merged = Histogram.max_value central
      && List.for_all
           (fun p -> Histogram.percentile merged p = Histogram.percentile central p)
           [ 0.0; 25.0; 50.0; 90.0; 99.0; 99.9; 100.0 ]
      && Histogram.mean merged = Histogram.mean central)

(* ---- Broker conservation ---------------------------------------------- *)

module Policy = Skyloft_alloc.Policy
module Allocator = Skyloft_alloc.Allocator
module Broker = Skyloft_alloc.Broker

(* Random fleets under random abuse: tenants with random bounds and
   policies, driven by a random script of behaviour flips (congest, go
   idle, freeze the signal, thaw, crash).  After every tick the
   conservation invariants must hold from the outside — grants within the
   machine, every live tenant between its floor and ceiling, crashed
   tenants at zero, fairness a valid Jain index — on top of the arbiter's
   own internal [check_invariants] (which raises out of the property if
   it ever disagrees).  The same script drives an [Allocator] over the
   same bindings (one shared policy, degrading on stale signals), minus
   the crashes it has no notion of. *)

(* A fleet is (capacity, tenants, script): each tenant is (floor,
   headroom, lc?, policy#); each script step is (tenant#, behaviour#). *)
let broker_fleet_gen =
  QCheck.(
    triple (int_range 2 16)
      (list_of_size (Gen.int_range 1 6)
         (quad (int_range 0 2) (int_range 0 4) bool (int_range 0 2)))
      (list_of_size (Gen.int_range 20 80)
         (pair (int_range 0 5) (int_range 0 4))))

type tenant_state = { mutable congested : bool; mutable frozen : bool }

(* One arbiter's view of a scripted tenant: a sample that reads the
   shared behaviour flags with its own busy counter, and an apply that
   tracks its own grant ([sample] runs once during registration, before
   the binding is queryable). *)
let scripted st ~interval ~initial =
  let busy = ref 0 and grant = ref initial in
  let sample () =
    if st.congested && not st.frozen then busy := !busy + (max 1 !grant * interval);
    if st.frozen then
      { Allocator.runq_len = 2; oldest_delay = Time.us 15; busy_ns = !busy }
    else if st.congested then
      { Allocator.runq_len = 4; oldest_delay = Time.us 20; busy_ns = !busy }
    else { Allocator.runq_len = 0; oldest_delay = 0; busy_ns = !busy }
  in
  let apply ~granted ~delta:_ =
    grant := granted;
    0
  in
  (sample, apply)

let policy_of = function
  | 0 -> Policy.static ()
  | 1 -> Policy.delay ()
  | _ -> Policy.utilization ()

let prop_broker_conserves_cores =
  QCheck.Test.make ~name:"broker: conservation under random fleets and faults"
    ~count:60 broker_fleet_gen
    (fun (capacity, tenant_specs, script) ->
      QCheck.assume (tenant_specs <> []);
      let engine = Engine.create () in
      let interval = Time.us 5 in
      let config =
        (* tight knobs so short scripts can actually cross the edges *)
        {
          Broker.interval;
          degrade_after = 3;
          hoard_cap = 5;
          hoard_decay = 1;
          quarantine_ticks = 6;
        }
      in
      let broker = Broker.create ~engine ~capacity ~config () in
      let _, _, _, first_policy = List.hd tenant_specs in
      let alloc =
        Allocator.create ~engine ~policy:(policy_of first_policy) ~interval
          ~total_cores:capacity ~degrade_after:3 ()
      in
      (* clamp floors so the sum of initial grants fits the machine *)
      let remaining = ref capacity in
      let tenants =
        List.mapi
          (fun i (g_raw, extra, lc, p) ->
            let g = min g_raw !remaining in
            remaining := !remaining - g;
            let bounds =
              { Allocator.guaranteed = g; burstable = min capacity (g + extra) }
            in
            let st = { congested = false; frozen = false } in
            let name = Printf.sprintf "t%d" i in
            let kind = if lc then Policy.Lc else Policy.Be in
            let sample, apply = scripted st ~interval ~initial:g in
            Broker.register broker ~tenant:i ~name ~kind ~policy:(policy_of p)
              ~bounds ~initial:g ~sample ~apply;
            let sample, apply = scripted st ~interval ~initial:g in
            Allocator.register alloc ~app:i ~name ~kind ~bounds ~initial:g
              ~sample ~apply;
            (i, bounds, st))
          tenant_specs
      in
      let n = List.length tenants in
      let holds = ref true in
      let within_machine ~granted ~free_cores =
        let total =
          List.fold_left (fun acc (i, _, _) -> acc + granted i) 0 tenants
        in
        if total > capacity || free_cores <> capacity - total then holds := false
      in
      let within_bounds g bounds =
        if g < bounds.Allocator.guaranteed || g > bounds.Allocator.burstable then
          holds := false
      in
      let check_outside () =
        within_machine
          ~granted:(fun i -> Broker.granted broker ~tenant:i)
          ~free_cores:(Broker.free_cores broker);
        List.iter
          (fun (i, bounds, _) ->
            let g = Broker.granted broker ~tenant:i in
            match Broker.health broker ~tenant:i with
            | Allocator.Crashed -> if g <> 0 then holds := false
            | _ -> within_bounds g bounds)
          tenants;
        let f = Broker.fairness broker in
        if not (f > 0.0 && f <= 1.0 +. 1e-9) then holds := false;
        within_machine
          ~granted:(fun i -> Allocator.granted alloc ~app:i)
          ~free_cores:(Allocator.free_cores alloc);
        List.iter
          (fun (i, bounds, _) -> within_bounds (Allocator.granted alloc ~app:i) bounds)
          tenants
      in
      List.iteri
        (fun k (who, behaviour) ->
          let _, _, st = List.nth tenants (who mod n) in
          (match behaviour with
          | 0 -> st.congested <- true
          | 1 -> st.congested <- false
          | 2 -> st.frozen <- true
          | 3 -> st.frozen <- false
          | _ -> Broker.crash broker ~tenant:(who mod n));
          Engine.run ~until:((k + 1) * interval) engine;
          Broker.tick broker;
          Allocator.tick alloc;
          check_outside ())
        script;
      !holds)

let suite =
  List.concat_map
    (fun policy ->
      [
        qtest (prop_all_complete policy);
        qtest (prop_work_conserved policy);
        qtest (prop_latency_at_least_service policy);
      ])
    policies
  @ [
      qtest (prop_deterministic (List.nth policies 1));
      qtest (prop_deterministic (List.nth policies 5));
      qtest (prop_deterministic (List.nth policies 7));
      qtest prop_fifo_never_preempts;
      qtest prop_centralized_all_complete;
      qtest prop_handle_conformance;
      qtest prop_histogram_shard_merge;
      qtest prop_broker_conserves_cores;
    ]
