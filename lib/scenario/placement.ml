module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Rng = Skyloft_sim.Rng
module Coro = Skyloft_sim.Coro
module Dist = Skyloft_sim.Dist
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Costs = Skyloft_hw.Costs
module Kmod = Skyloft_kernel.Kmod
module Histogram = Skyloft_stats.Histogram
module App = Skyloft.App
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

type config = {
  timer_hz : int;
  quantum : Time.t;
  deadline : Time.t;  (* per-task kill timer; keeps crashed tenants lossless *)
  retry_budget : int;
  retry_backoff : Time.t;
  broker : Broker.config;
}

let default_config () =
  {
    timer_hz = 100_000;
    quantum = Time.us 30;
    deadline = Time.ms 5;
    retry_budget = 2;
    retry_backoff = Time.us 100;
    broker = Broker.default_config ();
  }

(* Runtime-neutral surface, one per tenant: submit one deadline-armed
   task, drive the broker's allowance, report congestion, and hook the
   tenant into the machine-wide observability plane (shared flight
   recorder + pull registry, tenant-labelled). *)
type rt_iface = {
  rt_submit :
    name:string ->
    service:Time.t ->
    on_drop:(unit -> unit) ->
    on_done:(unit -> unit) ->
    unit;
  rt_set_allowance : int -> unit;
  rt_congestion : unit -> Allocator.raw;
  rt_deadline_drops : unit -> int;
  rt_set_trace : Skyloft_stats.Trace.t -> unit;
  rt_register : Skyloft_obs.Registry.t -> unit;
}

let make_iface ~machine ~config ~(spec : tenant) ~cores =
  let deadline = config.deadline in
  let kmod = Kmod.create machine in
  match spec.runtime with
  | (Scenario.Percpu | Scenario.Worksteal) as runtime ->
      let quantum = config.quantum in
      let park, policy, steals =
        if runtime = Scenario.Worksteal then
          let policy, steals =
            Skyloft_policies.Work_stealing.steal_half ~quantum ()
          in
          (Some Skyloft_policies.Work_stealing.park, policy, Some steals)
        else (None, Skyloft_policies.Work_stealing.create ~quantum (), None)
      in
      let rt =
        Skyloft.Percpu.create machine kmod ~cores ~timer_hz:config.timer_hz
          ?park policy
      in
      let app = Skyloft.Percpu.create_app rt ~name:spec.name in
      {
        rt_submit =
          (fun ~name ~service ~on_drop ~on_done ->
            ignore
              (Skyloft.Percpu.spawn rt app ~name ~record:false ~deadline
                 ~on_drop:(fun _ -> on_drop ())
                 (Coro.Compute
                    ( service,
                      fun () ->
                        on_done ();
                        Coro.Exit ))));
        rt_set_allowance = Skyloft.Percpu.set_core_allowance rt;
        rt_congestion = (fun () -> Skyloft.Percpu.congestion rt);
        rt_deadline_drops = (fun () -> Skyloft.Percpu.deadline_drops rt);
        rt_set_trace = Skyloft.Percpu.set_trace rt;
        rt_register =
          (fun reg ->
            let labels = [ ("tenant", spec.name) ] in
            Skyloft.Percpu.register_metrics rt ~labels reg;
            Option.iter
              (fun s -> Skyloft_policies.Work_stealing.register_metrics s ~labels reg)
              steals);
      }
  | (Scenario.Centralized | Scenario.Hybrid) as runtime ->
      let dispatcher_core = List.hd cores and worker_cores = List.tl cores in
      let rt =
        Skyloft.Hybrid.create machine kmod ~dispatcher_core ~worker_cores
          ~quantum:config.quantum ~timer_hz:config.timer_hz
          ~adaptive:(runtime = Scenario.Hybrid)
          (fst (Skyloft_policies.Shinjuku_shenango.create ()))
      in
      let app = Skyloft.Hybrid.create_app rt ~name:spec.name in
      {
        rt_submit =
          (fun ~name ~service ~on_drop ~on_done ->
            ignore
              (Skyloft.Hybrid.submit rt app ~record:false ~deadline
                 ~on_drop:(fun _ -> on_drop ())
                 ~name
                 (Coro.Compute
                    ( service,
                      fun () ->
                        on_done ();
                        Coro.Exit ))));
        rt_set_allowance = Skyloft.Hybrid.set_core_allowance rt;
        rt_congestion = (fun () -> Skyloft.Hybrid.congestion rt);
        rt_deadline_drops = (fun () -> Skyloft.Hybrid.deadline_drops rt);
        rt_set_trace = Skyloft.Hybrid.set_trace rt;
        rt_register =
          (fun reg ->
            Skyloft.Hybrid.register_metrics rt
              ~labels:[ ("tenant", spec.name) ]
              reg);
      }

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
  iface : rt_iface;
  rng : Rng.t;  (* service draws + mix picks *)
  hist : Histogram.t;
  mutable s_submitted : int;
  mutable s_completed : int;
  mutable s_gave_up : int;
}

let pick_branch rng branches =
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 branches in
  let u = Rng.float rng total in
  let rec go acc = function
    | [ (_, shape) ] -> shape
    | (w, shape) :: rest -> if u < acc +. w then shape else go (acc +. w) rest
    | [] -> assert false
  in
  go 0.0 branches

let run ?(seed = 42) ?(faults = []) ?(config = default_config ()) ?trace
    ?registry ~name ~capacity ~requests tenants =
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
  let ranges = ref [] in
  let total_cores =
    List.fold_left
      (fun base t ->
        let extra =
          match t.runtime with
          | Scenario.Percpu | Scenario.Worksteal -> 0
          | Scenario.Centralized | Scenario.Hybrid -> 1
        in
        let width = t.burstable + extra in
        ranges := List.init width (fun i -> base + i) :: !ranges;
        base + width)
      0 tenants
  in
  let ranges = List.rev !ranges in
  let machine =
    Machine.create engine
      (Topology.create ~sockets:1 ~cores_per_socket:total_cores)
  in
  (* Split order is the seed contract: injector first, then service
     streams, then arrival streams, each in tenant order. *)
  let inj_rng = Engine.split_rng engine in
  let broker =
    Broker.create ~engine ~capacity ~config:config.broker ()
  in
  let states =
    List.map2
      (fun spec cores ->
        let iface = make_iface ~machine ~config ~spec ~cores in
        iface.rt_set_allowance spec.guaranteed;
        {
          spec;
          iface;
          rng = Engine.split_rng engine;
          hist = Histogram.create ();
          s_submitted = 0;
          s_completed = 0;
          s_gave_up = 0;
        })
      tenants ranges
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
        ~sample:(fun () -> st.iface.rt_congestion ())
        ~apply:(fun ~granted ~delta ->
          st.iface.rt_set_allowance granted;
          Costs.app_switch_ns * abs delta))
    states;
  (* Machine-wide observability plane: one shared flight recorder across
     every tenant's runtime AND the broker (arbitration instants land on
     the base core of the tenant's physical range), one pull registry
     with tenant-labelled runtime metrics.  Both are strictly passive —
     attaching them must not perturb the simulation (the obs-report
     experiment asserts fingerprint identity either way). *)
  let bases = Array.of_list (List.map List.hd ranges) in
  (match trace with
  | Some tr ->
      List.iter (fun st -> st.iface.rt_set_trace tr) states;
      Broker.set_trace broker ~core_of_tenant:(fun i -> bases.(i)) tr
  | None -> ());
  (match registry with
  | Some reg ->
      List.iter (fun st -> st.iface.rt_register reg) states;
      Broker.register_metrics broker reg
  | None -> ());
  let injector = Injector.create ~engine ~rng:inj_rng () in
  if faults <> [] then Injector.arm_tenants injector ~broker faults;
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
    let rec exec shape ~fail ~k =
      match shape with
      | Shape.Single d | Shape.Chain [ d ] ->
          st.iface.rt_submit ~name:st.spec.name
            ~service:(Dist.sample d st.rng) ~on_drop:fail ~on_done:k
      | Shape.Chain [] -> assert false
      | Shape.Chain (d :: rest) ->
          st.iface.rt_submit ~name:st.spec.name
            ~service:(Dist.sample d st.rng) ~on_drop:fail
            ~on_done:(fun () -> exec (Shape.Chain rest) ~fail ~k)
      | Shape.Fanout { width; stage } ->
          let remaining = ref width in
          for _ = 1 to width do
            st.iface.rt_submit ~name:st.spec.name
              ~service:(Dist.sample stage st.rng) ~on_drop:fail
              ~on_done:(fun () ->
                decr remaining;
                if !remaining = 0 then k ())
          done
      | Shape.Mix branches -> exec (pick_branch st.rng branches) ~fail ~k
    in
    Loadgen.retrying engine ~budget:config.retry_budget
      ~backoff:config.retry_backoff
      ~attempt:(fun _k done_ ->
        exec st.spec.shape
          ~fail:(fun () -> done_ false)
          ~k:(fun () ->
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
      let next = Arrival.sampler st.spec.arrival arrival_rng in
      Loadgen.stream engine
        ~next:(fun ~now ->
          if st.s_submitted >= requests then None else next ~now)
        (fun at -> issue st at))
    states arrival_rngs;
  (* Bounded chunked drain, as in Scenario.run: the broker tick and the
     runtimes' timers refill the queue forever, so run until every
     tenant's stream closed and every request settled, under a hard cap
     generous enough for crash scenarios (retries of dead tenants settle
     by deadline, not by service). *)
  let slowest =
    List.fold_left
      (fun acc t ->
        max acc (float_of_int requests /. Arrival.mean_rate t.arrival))
      0.0 tenants
  in
  let expected_ns = int_of_float (slowest *. 1e9) in
  let chunk = max (Time.ms 10) (expected_ns / 16) in
  let hard_cap = (8 * expected_ns) + Time.s 1 in
  let all_submitted () = List.for_all (fun st -> st.s_submitted >= requests) states in
  let rec drain until =
    Engine.run ~until engine;
    if ((not (all_submitted ())) || !total_settled < !total_submitted)
       && until < hard_cap
    then drain (until + chunk)
  in
  drain chunk;
  Broker.stop broker;
  ignore (Injector.injected injector);
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
            deadline_drops = st.iface.rt_deadline_drops ();
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

let hist_line h =
  Printf.sprintf "n=%d min=%d p50=%d p90=%d p99=%d p999=%d max=%d mean=%.3f"
    (Histogram.count h) (Histogram.min_value h)
    (Histogram.percentile h 50.0) (Histogram.percentile h 90.0)
    (Histogram.percentile h 99.0) (Histogram.percentile h 99.9)
    (Histogram.max_value h) (Histogram.mean h)

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
           t.final_health t.core_ns (hist_line t.latency)))
    r.tenants;
  Buffer.add_string buf
    (Printf.sprintf
       "broker|grants=%d|reclaims=%d|yields=%d|degraded=%d|quarantined=%d|released=%d|crashed=%d|charged=%d|fairness=%.4f\n"
       r.grants r.reclaims r.yields r.degradations r.quarantines r.releases
       r.crashes r.charged_ns r.fairness);
  Buffer.contents buf

let pp_result ppf r =
  Format.fprintf ppf "%s: %d tenants on %d cores, fairness %.4f" r.placement
    (List.length r.tenants) r.capacity r.fairness
