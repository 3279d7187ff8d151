module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Rng = Skyloft_sim.Rng
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Kmod = Skyloft_kernel.Kmod
module Histogram = Skyloft_stats.Histogram
module Rc = Skyloft.Runtime_core
module Task = Skyloft.Task
module Work_stealing = Skyloft_policies.Work_stealing
module Allocator = Skyloft_alloc.Allocator
module Alloc_policy = Skyloft_alloc.Policy
module Loadgen = Skyloft_net.Loadgen

type lc_spec = {
  lc_name : string;
  shape : Shape.t;
  arrival : Arrival.t;
  program : Shape.program;
}
type be_spec = { be_name : string; guaranteed : int }
type tenant = Lc of lc_spec | Be of be_spec
type t = { name : string; cores : int; tenants : tenant list }

(* The program is compiled here, once per declared tenant, so a cell's
   setup builds none. *)
let lc ~name ~shape ~arrival =
  Lc { lc_name = name; shape; arrival; program = Shape.compile shape }
let be ?(guaranteed = 0) ~name () = Be { be_name = name; guaranteed }
let make ~name ~cores tenants = { name; cores; tenants }

let tenant_name = function
  | Lc { lc_name; _ } -> lc_name
  | Be { be_name; _ } -> be_name

let validate t =
  if t.cores < 1 then invalid_arg "Scenario: cores must be >= 1";
  let names = List.map tenant_name t.tenants in
  if List.length (List.sort_uniq String.compare names) <> List.length names then
    invalid_arg "Scenario: duplicate tenant names";
  let lcs, bes =
    List.partition (function Lc _ -> true | Be _ -> false) t.tenants
  in
  if lcs = [] then invalid_arg "Scenario: needs at least one LC tenant";
  if List.length bes > 1 then
    invalid_arg
      "Scenario: at most one BE tenant (the runtimes attach a single \
       best-effort application to the core allocator)";
  List.iter
    (function
      | Lc { shape; arrival; _ } ->
          Shape.validate shape;
          Arrival.validate arrival
      | Be { guaranteed; _ } ->
          if guaranteed < 0 || guaranteed > t.cores then
            invalid_arg "Scenario: BE guaranteed cores out of range")
    t.tenants

let mean_rate_rps t =
  List.fold_left
    (fun acc -> function
      | Lc { arrival; _ } -> acc +. Arrival.mean_rate arrival
      | Be _ -> acc)
    0.0 t.tenants

(* Long-run LC compute demand as a fraction of the worker pool. *)
let offered_load t =
  let demand =
    List.fold_left
      (fun acc -> function
        | Lc { arrival; shape; _ } ->
            acc +. (Arrival.mean_rate arrival *. Shape.mean_service shape /. 1e9)
        | Be _ -> acc)
      0.0 t.tenants
  in
  demand /. float_of_int t.cores

(* ---- compilation onto the runtimes -------------------------------------- *)

type runtime = Percpu | Centralized | Hybrid | Worksteal

let runtime_name = function
  | Percpu -> "percpu"
  | Centralized -> "centralized"
  | Hybrid -> "hybrid"
  | Worksteal -> "worksteal"

let runtimes = [ Percpu; Centralized; Hybrid; Worksteal ]

type tenant_digest = {
  tenant : string;
  submitted : int;
  completed : int;
  latency : Histogram.t;
}

type digest = {
  scenario : string;
  runtime : string;
  target : int;
  submitted : int;
  completed : int;
  last_completion : Time.t;
  tenants : tenant_digest list;
  be_preemptions : int;
  alloc_grants : int;
  alloc_reclaims : int;
  events_fired : int;
}

(* Merged LC latency across tenants: per-tenant histogram snapshots are
   mergeable — count-exact and percentile-equal to central recording (the
   QCheck property in test/test_properties.ml). *)
let merged_latency d =
  let all = Histogram.create () in
  List.iter (fun td -> Histogram.merge_into ~src:td.latency ~dst:all) d.tenants;
  all

(* The one configuration constructor: two dispatch mechanisms, four
   configurations.  Work stealing is per-CPU dispatch under the
   steal-half policy with Shenango-style parking (its steal counters join
   the handle's metrics); the centralized runtime is the hybrid pinned to
   its serial dispatcher, which takes [first_core] ahead of the
   workers. *)
let dispatcher_cores = function Percpu | Worksteal -> 0 | Centralized | Hybrid -> 1

(* Table 5's user timer and quantum. *)
let timer_hz = 100_000
let quantum = Time.us 30

let build ?watchdog machine kmod ~first_core ~cores runtime =
  let range first = List.init cores (fun i -> first + i) in
  match runtime with
  | Percpu ->
      Skyloft.Percpu.runtime
        (Skyloft.Percpu.create machine kmod ~cores:(range first_core) ~timer_hz
           ?watchdog (Work_stealing.create ~quantum ()))
  | Worksteal ->
      let policy, steals = Work_stealing.steal_half ~quantum () in
      let rt =
        Skyloft.Percpu.runtime
          (Skyloft.Percpu.create machine kmod ~cores:(range first_core) ~timer_hz
             ?watchdog ~park:Work_stealing.park policy)
      in
      Rc.add_metrics rt (fun labels reg ->
          Work_stealing.register_metrics steals ~labels reg);
      rt
  | Centralized | Hybrid ->
      Skyloft.Hybrid.runtime
        (Skyloft.Hybrid.create machine kmod ~dispatcher_core:first_core
           ~worker_cores:(range (first_core + 1))
           ~quantum ~adaptive:(runtime = Hybrid) ?watchdog
           (Skyloft_policies.Fifo.create ()))

(* The delay policy keeps reacting while LC is starved of cores (the
   utilization signal goes silent there); the BE tenant's floor becomes
   the allocator's guaranteed cores. *)
let alloc_config guaranteed =
  {
    (Allocator.default_config ()) with
    Allocator.policy = Alloc_policy.delay ();
    be_guaranteed = guaranteed;
  }

(* ---- arrival streams and the drain (shared with Placement.run) ---------- *)

let stream engine arrival rng ~stop issue =
  let next = Arrival.sampler arrival rng in
  Loadgen.stream engine
    ~next:(fun ~now -> if stop () then Loadgen.never else next ~now)
    issue

let drain engine ~expected_s ~settled =
  let expected_ns = int_of_float (expected_s *. 1e9) in
  let chunk = Int.max (Time.ms 10) (expected_ns / 16) in
  let hard_cap = (8 * expected_ns) + Time.s 1 in
  let rec go until =
    Engine.run ~until engine;
    if (not (settled ())) && until < hard_cap then go (until + chunk)
  in
  go chunk

type lc_state = {
  l_spec : lc_spec;
  l_submit : arrival:Time.t -> service:Time.t -> int -> unit;
  l_rng : Rng.t;  (* service draws + mix picks *)
  l_hist : Histogram.t;
  mutable l_submitted : int;
  mutable l_completed : int;
}

(* A cell from its setup on: everything the request path counts into and
   [finish] drains and digests. *)
type cell = {
  scenario : t;
  runtime : runtime;
  requests : int;
  engine : Engine.t;
  rt : Rc.t;
  table : Shape.table;  (* every tenant's requests in flight *)
  mutable lcs : lc_state list;  (* set once, right after the cell *)
  mutable submitted : int;
  mutable completed : int;
  mutable last_completion : Time.t;
}

let cell_runtime c = c.rt
let cell_engine c = c.engine

let prepare ?(seed = 42) ~requests ~runtime scenario =
  validate scenario;
  if requests < 1 then invalid_arg "Scenario.prepare: requests must be >= 1";
  let engine = Engine.create ~seed () in
  let machine =
    Machine.create engine
      (Topology.create ~sockets:1
         ~cores_per_socket:(scenario.cores + dispatcher_cores runtime))
  in
  let kmod = Kmod.create machine in
  let be_tenant =
    List.find_map (function Be b -> Some b | Lc _ -> None) scenario.tenants
  in
  let rt =
    build machine kmod ~first_core:0 ~cores:scenario.cores runtime
  in
  let c =
    {
      scenario;
      runtime;
      requests;
      engine;
      rt;
      table = Shape.table ();
      lcs = [];
      submitted = 0;
      completed = 0;
      last_completion = 0;
    }
  in
  (* A request's stages run its tenant's stage program: every stage
     completion goes to the tenant's one hook, which issues the next
     chain stage or counts the join down, and at the request's last
     completion records only into the tenant's bounded histogram —
     nothing per-request survives the request. *)
  let complete (l : lc_state) (task : Task.t) =
    let arrival = task.Task.arrival in
    if
      Shape.step l.l_spec.program c.table l.l_rng ~submit:l.l_submit ~arrival
        task.Task.request
    then begin
      l.l_completed <- l.l_completed + 1;
      c.completed <- c.completed + 1;
      let now = Engine.now engine in
      c.last_completion <- Int.max c.last_completion now;
      Histogram.record l.l_hist (now - arrival)
    end
  in
  let tenant spec =
    let app = Rc.create_app rt ~name:spec.lc_name in
    let rec l =
      {
        l_spec = spec;
        l_submit =
          (fun ~arrival ~service request ->
            Rc.submit rt app ~name:spec.lc_name ~arrival ~service ~hook request);
        l_rng = Engine.split_rng engine;
        l_hist = Histogram.create ();
        l_submitted = 0;
        l_completed = 0;
      }
    and hook task = complete l task in
    l
  in
  (* Apps are created and RNG streams split in scenario order, before
     anything runs: the draw order is part of the seed contract. *)
  let lcs =
    List.filter_map
      (function Lc spec -> Some (tenant spec) | Be _ -> None)
      scenario.tenants
  in
  c.lcs <- lcs;
  let arrival_rngs = List.map (fun _ -> Engine.split_rng engine) lcs in
  (match be_tenant with
  | Some { be_name; guaranteed } ->
      let app = Rc.create_app rt ~name:be_name in
      Rc.attach_be_app rt ~alloc:(alloc_config guaranteed) app ~chunk:(Time.us 50)
        ~workers:scenario.cores
  | None -> ());
  let issue (l : lc_state) at =
    l.l_submitted <- l.l_submitted + 1;
    c.submitted <- c.submitted + 1;
    Shape.start l.l_spec.program c.table l.l_rng ~submit:l.l_submit at
  in
  List.iter2
    (fun l arrival_rng ->
      stream engine l.l_spec.arrival arrival_rng
        ~stop:(fun () -> c.submitted >= requests)
        (issue l))
    lcs arrival_rngs;
  c

let finish c =
  drain c.engine
    ~expected_s:(float_of_int c.requests /. mean_rate_rps c.scenario)
    ~settled:(fun () -> c.submitted >= c.requests && c.completed >= c.submitted);
  let alloc f = match Rc.allocator c.rt with Some a -> f a | None -> 0 in
  {
    scenario = c.scenario.name;
    runtime = runtime_name c.runtime;
    target = c.requests;
    submitted = c.submitted;
    completed = c.completed;
    last_completion = c.last_completion;
    tenants =
      List.map
        (fun l ->
          {
            tenant = l.l_spec.lc_name;
            submitted = l.l_submitted;
            completed = l.l_completed;
            latency = l.l_hist;
          })
        c.lcs;
    be_preemptions = Rc.be_preemptions c.rt;
    alloc_grants = alloc Allocator.grants;
    alloc_reclaims = alloc Allocator.reclaims;
    events_fired = Engine.events_fired c.engine;
  }

let run ?seed ~requests ~runtime scenario =
  finish (prepare ?seed ~requests ~runtime scenario)

(* ---- digests -------------------------------------------------------------- *)

let hist_line h =
  Printf.sprintf "n=%d min=%d p50=%d p90=%d p99=%d p999=%d max=%d mean=%.3f"
    (Histogram.count h) (Histogram.min_value h)
    (Histogram.percentile h 50.0) (Histogram.percentile h 90.0)
    (Histogram.percentile h 99.0) (Histogram.percentile h 99.9)
    (Histogram.max_value h) (Histogram.mean h)

(* Everything request-visible, rendered deterministically: the scale
   experiment's golden digests are MD5 over this string. *)
let digest_string (d : digest) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%s|%s|target=%d|submitted=%d|completed=%d|last=%d\n"
       d.scenario d.runtime d.target d.submitted d.completed d.last_completion);
  Buffer.add_string buf
    (Printf.sprintf "be_preempt=%d|grants=%d|reclaims=%d\n" d.be_preemptions
       d.alloc_grants d.alloc_reclaims);
  List.iter
    (fun td ->
      Buffer.add_string buf
        (Printf.sprintf "%s|submitted=%d|completed=%d|%s\n" td.tenant
           td.submitted td.completed (hist_line td.latency)))
    d.tenants;
  Buffer.add_string buf (Printf.sprintf "all|%s\n" (hist_line (merged_latency d)));
  Buffer.contents buf
