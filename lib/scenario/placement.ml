module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Rng = Skyloft_sim.Rng
module Coro = Skyloft_sim.Coro
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Costs = Skyloft_hw.Costs
module Kmod = Skyloft_kernel.Kmod
module Histogram = Skyloft_stats.Histogram
module App = Skyloft.App
module Rc = Skyloft.Runtime_core
module Allocator = Skyloft_alloc.Allocator
module Alloc_policy = Skyloft_alloc.Policy
module Broker = Skyloft_alloc.Broker
module Loadgen = Skyloft_net.Loadgen
module Plan = Skyloft_fault.Plan
module Injector = Skyloft_fault.Injector

(* A placement is one oversubscribed machine: N independent runtime
   instances (tenants) sharing one simulated machine under a core
   {!Broker}.  Each tenant owns a disjoint physical core range sized by
   its burstable ceiling — the broker's allowance grants decide how much
   of that range the tenant may actually occupy, and the broker's
   capacity is smaller than the sum of ceilings.  That is the
   oversubscription: every tenant could burst, not all at once.

   The centralized and hybrid flavours get one extra dispatcher core
   outside the brokered pool (the Caladan iokernel arrangement: control
   planes run on dedicated cores, only worker cores are traded). *)

type tenant = {
  name : string;
  runtime : Scenario.runtime;
  kind : Alloc_policy.kind;
  guaranteed : int;
  burstable : int;
  shape : Shape.t;
  arrival : Arrival.t;
}

let tenant ?(kind = Alloc_policy.Lc) ~name ~runtime ~guaranteed ~burstable
    ~shape ~arrival () =
  if guaranteed < 0 then invalid_arg "Placement.tenant: guaranteed < 0";
  if burstable < 1 then invalid_arg "Placement.tenant: burstable < 1";
  if burstable < guaranteed then
    invalid_arg "Placement.tenant: burstable < guaranteed";
  Shape.validate shape;
  Arrival.validate arrival;
  { name; runtime; kind; guaranteed; burstable; shape; arrival }

(* Per-task kill timer, which keeps crashed tenants lossless, and the
   client's retry budget and base backoff. *)
let deadline = Time.ms 5
let retry_budget = 2
let retry_backoff = Time.us 100

type tenant_result = {
  t_name : string;
  t_runtime : string;
  t_kind : string;
  t_guaranteed : int;
  t_burstable : int;
  submitted : int;
  completed : int;
  gave_up : int;
  deadline_drops : int;
  final_granted : int;
  final_health : string;
  core_ns : int;
  latency : Histogram.t;
  allowance : Skyloft_stats.Timeseries.t;  (* granted cores over time *)
}

let lost r = r.submitted - r.completed - r.gave_up

type result = {
  placement : string;
  capacity : int;
  target : int;  (* requests per tenant *)
  last_completion : Time.t;
  tenants : tenant_result list;
  fairness : float;
  grants : int;
  reclaims : int;
  yields : int;
  degradations : int;
  quarantines : int;
  releases : int;
  crashes : int;
  charged_ns : Time.t;
}

type state = {
  spec : tenant;
  rt : Rc.t;
  app : App.t;
  rng : Rng.t;  (* service draws + mix picks *)
  hist : Histogram.t;
  mutable s_submitted : int;
  mutable s_completed : int;
  mutable s_gave_up : int;
}

let run ?(seed = 42) ?(faults = []) ?broker:config ?trace ?registry ~name
    ~capacity ~requests tenants =
  if tenants = [] then invalid_arg "Placement.run: no tenants";
  if requests < 1 then invalid_arg "Placement.run: requests must be >= 1";
  if capacity < 1 then invalid_arg "Placement.run: capacity must be >= 1";
  let floors = List.fold_left (fun acc t -> acc + t.guaranteed) 0 tenants in
  if floors > capacity then
    invalid_arg "Placement.run: guaranteed floors exceed broker capacity";
  let n = List.length tenants in
  List.iter
    (fun (p : Plan.t) ->
      match p.Plan.spec with
      | Plan.Tenant_hoard { tenant }
      | Plan.Tenant_stale { tenant }
      | Plan.Tenant_crash { tenant } ->
          if tenant >= n then invalid_arg "Placement.run: fault tenant out of range"
      | _ -> invalid_arg "Placement.run: only tenant-level fault plans apply")
    faults;
  let names = List.map (fun t -> t.name) tenants in
  if List.length (List.sort_uniq String.compare names) <> n then
    invalid_arg "Placement.run: duplicate tenant names";
  let engine = Engine.create ~seed () in
  (* Physical layout: disjoint contiguous ranges, ceilings fully backed;
     centralized flavours prepend a dedicated dispatcher core that is not
     part of the brokered pool. *)
  let bases = ref [] in
  let total_cores =
    List.fold_left
      (fun base t ->
        bases := base :: !bases;
        base + t.burstable + Scenario.dispatcher_cores t.runtime)
      0 tenants
  in
  let bases = List.rev !bases in
  let machine =
    Machine.create engine
      (Topology.create ~sockets:1 ~cores_per_socket:total_cores)
  in
  (* Split order is the seed contract: injector first, then service
     streams, then arrival streams, each in tenant order. *)
  let inj_rng = Engine.split_rng engine in
  let broker = Broker.create ~engine ~capacity ?config () in
  let states =
    List.map2
      (fun spec base ->
        let rt =
          Scenario.build machine (Kmod.create machine) ~first_core:base
            ~cores:spec.burstable spec.runtime
        in
        let app = Rc.create_app rt ~name:spec.name in
        Rc.set_core_allowance rt spec.guaranteed;
        {
          spec;
          rt;
          app;
          rng = Engine.split_rng engine;
          hist = Histogram.create ();
          s_submitted = 0;
          s_completed = 0;
          s_gave_up = 0;
        })
      tenants bases
  in
  let arrival_rngs = List.map (fun _ -> Engine.split_rng engine) states in
  List.iteri
    (fun i st ->
      let policy =
        match st.spec.kind with
        | Alloc_policy.Lc -> Alloc_policy.delay ()
        | Alloc_policy.Be -> Alloc_policy.utilization ()
      in
      Broker.register broker ~tenant:i ~name:st.spec.name ~kind:st.spec.kind
        ~policy
        ~bounds:
          {
            Allocator.guaranteed = st.spec.guaranteed;
            burstable = st.spec.burstable;
          }
        ~initial:st.spec.guaranteed
        ~sample:(fun () -> Rc.congestion st.rt)
        ~apply:(fun ~granted ~delta ->
          Rc.set_core_allowance st.rt granted;
          Costs.app_switch_ns * abs delta))
    states;
  (* Machine-wide observability plane: one shared flight recorder across
     every tenant's runtime AND the broker (arbitration instants land on
     the base core of the tenant's physical range), one pull registry
     with tenant-labelled runtime metrics.  Both are strictly passive —
     attaching them must not perturb the simulation (the obs-report
     experiment asserts fingerprint identity either way). *)
  let bases = Array.of_list bases in
  (match trace with
  | Some tr ->
      List.iter (fun st -> Rc.set_trace st.rt tr) states;
      Broker.set_trace broker ~core_of_tenant:(fun i -> bases.(i)) tr
  | None -> ());
  (match registry with
  | Some reg ->
      List.iter
        (fun st ->
          Rc.register_metrics st.rt ~labels:[ ("tenant", st.spec.name) ] reg)
        states;
      Broker.register_metrics broker reg
  | None -> ());
  Injector.arm_tenants (Injector.create ~engine ~rng:inj_rng ()) ~broker faults;
  Broker.start broker;
  let total_submitted = ref 0 and total_settled = ref 0 in
  let last_completion = ref 0 in
  (* One request: one shape execution per retry attempt, every task armed
     with the placement deadline.  A dropped stage fails the attempt
     (fan-out siblings already in flight run to their own end but their
     join never fires); the retry loop guarantees every request settles
     as exactly one of completed or gave-up — the reconciliation
     invariant [lost = 0] the experiment asserts. *)
  let issue (st : state) at =
    st.s_submitted <- st.s_submitted + 1;
    incr total_submitted;
    Loadgen.retrying engine ~budget:retry_budget ~backoff:retry_backoff
      ~attempt:(fun _k done_ ->
        let spawn service k =
          ignore
            (Rc.spawn st.rt st.app ~name:st.spec.name ~record:false
               ~deadline
               ~on_drop:(fun _ -> done_ false)
               (Coro.Compute
                  ( service,
                    fun () ->
                      k ();
                      Coro.Exit )))
        in
        Shape.exec st.spec.shape st.rng ~spawn (fun () ->
            let now = Engine.now engine in
            last_completion := max !last_completion now;
            st.s_completed <- st.s_completed + 1;
            incr total_settled;
            Histogram.record st.hist (now - at);
            done_ true))
      (fun () ->
        st.s_gave_up <- st.s_gave_up + 1;
        incr total_settled)
  in
  List.iter2
    (fun st arrival_rng ->
      Scenario.stream engine st.spec.arrival arrival_rng
        ~stop:(fun () -> st.s_submitted >= requests)
        (issue st))
    states arrival_rngs;
  (* The broker tick and the runtimes' timers refill the queue forever;
     the slowest tenant's stream sets the drain's cap, generous enough
     for crash scenarios (retries of dead tenants settle by deadline,
     not by service). *)
  Scenario.drain engine
    ~expected_s:
      (List.fold_left
         (fun acc t ->
           max acc (float_of_int requests /. Arrival.mean_rate t.arrival))
         0.0 tenants)
    ~settled:(fun () ->
      List.for_all (fun st -> st.s_submitted >= requests) states
      && !total_settled >= !total_submitted);
  Broker.stop broker;
  {
    placement = name;
    capacity;
    target = requests;
    last_completion = !last_completion;
    tenants =
      List.mapi
        (fun i st ->
          {
            t_name = st.spec.name;
            t_runtime = Scenario.runtime_name st.spec.runtime;
            t_kind =
              (match st.spec.kind with Alloc_policy.Lc -> "lc" | Alloc_policy.Be -> "be");
            t_guaranteed = st.spec.guaranteed;
            t_burstable = st.spec.burstable;
            submitted = st.s_submitted;
            completed = st.s_completed;
            gave_up = st.s_gave_up;
            deadline_drops = Rc.deadline_drops st.rt;
            final_granted = Broker.granted broker ~tenant:i;
            final_health = Broker.health_name (Broker.health broker ~tenant:i);
            core_ns = Broker.core_ns broker ~tenant:i;
            latency = st.hist;
            allowance = Broker.series broker ~tenant:i;
          })
        states;
    fairness = Broker.fairness broker;
    grants = Broker.grants broker;
    reclaims = Broker.reclaims broker;
    yields = Broker.yields broker;
    degradations = Broker.degradations broker;
    quarantines = Broker.quarantines broker;
    releases = Broker.releases broker;
    crashes = Broker.crashes broker;
    charged_ns = Broker.charged_ns broker;
  }

(* ---- digests ------------------------------------------------------------- *)

let digest_string r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "oversub|%s|capacity=%d|target=%d|last=%d\n" r.placement
       r.capacity r.target r.last_completion);
  List.iter
    (fun t ->
      Buffer.add_string buf
        (Printf.sprintf
           "%s|%s|%s|g=%d|b=%d|submitted=%d|completed=%d|gave_up=%d|drops=%d|granted=%d|health=%s|core_ns=%d|%s\n"
           t.t_name t.t_runtime t.t_kind t.t_guaranteed t.t_burstable
           t.submitted t.completed t.gave_up t.deadline_drops t.final_granted
           t.final_health t.core_ns (Scenario.hist_line t.latency)))
    r.tenants;
  Buffer.add_string buf
    (Printf.sprintf
       "broker|grants=%d|reclaims=%d|yields=%d|degraded=%d|quarantined=%d|released=%d|crashed=%d|charged=%d|fairness=%.4f\n"
       r.grants r.reclaims r.yields r.degradations r.quarantines r.releases
       r.crashes r.charged_ns r.fairness);
  Buffer.contents buf
