(* The full benchmark harness: regenerates every table and figure of the
   paper's evaluation (§5).

   Layout:
   - Bechamel microbenchmarks measure this repository's real code: the
     effects-based uthread operations (Table 7's Skyloft column) and the
     simulator's hot primitives.
   - Each figure/table section then runs the corresponding simulation
     experiment and prints measured-vs-paper tables (EXPERIMENTS.md records
     the comparison).

   SKYLOFT_BENCH=quick|default|full selects the per-point simulated
   duration (default: default). *)

open Bechamel
open Toolkit
module E = Skyloft_experiments
module U = Skyloft_uthread.Uthread

(* ---- Bechamel plumbing ------------------------------------------------- *)

let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |]
let instances = Instance.[ monotonic_clock ]

let run_bench tests =
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  match Analyze.merge ols instances results with
  | results -> results

let estimate results name =
  match Hashtbl.find_opt results (Measure.label Instance.monotonic_clock) with
  | None -> nan
  | Some tbl -> (
      match Hashtbl.find_opt tbl name with
      | None -> nan
      | Some ols_result -> (
          match Analyze.OLS.estimates ols_result with
          | Some (t :: _) -> t
          | Some [] | None -> nan))

(* ---- Table 7: real uthread operation costs ----------------------------- *)

(* Each staged function performs [ops_per_run] operations plus one
   Uthread.run setup; the per-operation cost is the slope divided by the
   batch size (the run overhead is amortised). *)
let ops_per_run = 1000

let bench_yield () =
  U.run (fun () ->
      let t =
        U.spawn (fun () ->
            for _ = 1 to ops_per_run do
              U.yield ()
            done)
      in
      U.join t)

let bench_spawn () =
  U.run (fun () ->
      for _ = 1 to ops_per_run do
        ignore (U.spawn (fun () -> ()))
      done)

let bench_mutex () =
  let m = U.Mutex.create () in
  U.run (fun () ->
      for _ = 1 to ops_per_run do
        U.Mutex.lock m;
        U.Mutex.unlock m
      done)

let bench_condvar () =
  let m = U.Mutex.create () and cv = U.Condvar.create () in
  U.run (fun () ->
      let waiter =
        U.spawn (fun () ->
            U.Mutex.lock m;
            for _ = 1 to ops_per_run do
              U.Condvar.wait cv m
            done;
            U.Mutex.unlock m)
      in
      for _ = 1 to ops_per_run do
        U.yield ();
        U.Condvar.signal cv
      done;
      U.join waiter)

let table7_tests =
  Test.make_grouped ~name:"table7"
    [
      Test.make ~name:"yield" (Staged.stage bench_yield);
      Test.make ~name:"spawn" (Staged.stage bench_spawn);
      Test.make ~name:"mutex" (Staged.stage bench_mutex);
      Test.make ~name:"condvar" (Staged.stage bench_condvar);
    ]

let print_table7_measured () =
  E.Report.section
    "Table 7 (measured): real effects-based uthread operations (Bechamel)";
  let results = run_bench table7_tests in
  let per_op name = estimate results (Printf.sprintf "table7/%s" name) /. float_of_int ops_per_run in
  let paper = [ ("yield", 37); ("spawn", 191); ("mutex", 27); ("condvar", 86) ] in
  E.Report.table
    ~header:[ "operation"; "measured ns/op (this host)"; "paper Skyloft ns" ]
    (List.map
       (fun (name, p) ->
         [ name; Printf.sprintf "%.0f" (per_op name); string_of_int p ])
       paper);
  E.Report.note "absolute values depend on this host's CPU and the OCaml runtime;";
  E.Report.note "the claim preserved is user-level ops at tens-to-hundreds of ns,";
  E.Report.note "orders of magnitude below pthread spawn (15,418 ns) and condvar (2,532 ns)"

(* ---- simulator primitive microbenchmarks ------------------------------- *)

let bench_eventq () =
  let module Eventq = Skyloft_sim.Eventq in
  let q = Eventq.create () in
  for i = 1 to 1000 do
    ignore (Eventq.schedule q ~at:i ())
  done;
  let rec drain () = match Eventq.pop q with Some _ -> drain () | None -> () in
  drain ()

let bench_engine_events () =
  let module Engine = Skyloft_sim.Engine in
  let engine = Engine.create () in
  for i = 1 to 1000 do
    ignore (Engine.at engine i (fun () -> ()))
  done;
  Engine.run engine

let sim_tests =
  Test.make_grouped ~name:"sim"
    [
      Test.make ~name:"eventq-1k" (Staged.stage bench_eventq);
      Test.make ~name:"engine-1k" (Staged.stage bench_engine_events);
    ]

let print_sim_bench () =
  E.Report.section "Simulator primitives (Bechamel; cost per simulated event)";
  let results = run_bench sim_tests in
  E.Report.table
    ~header:[ "primitive"; "ns per event" ]
    [
      [ "eventq schedule+pop"; Printf.sprintf "%.0f" (estimate results "sim/eventq-1k" /. 1000.) ];
      [ "engine schedule+fire"; Printf.sprintf "%.0f" (estimate results "sim/engine-1k" /. 1000.) ];
    ]

(* ---- allocator decision path -------------------------------------------- *)

(* Cost of one Allocator.tick — sample + policy + arbitration + apply — on a
   20-core pool with one LC and one BE binding.  The synthetic sample
   alternates congested/idle phases so every tick walks the full decision
   path and a fair share of ticks actually move cores. *)
module Allocator = Skyloft_alloc.Allocator
module Alloc_policy = Skyloft_alloc.Policy
module Time' = Skyloft_sim.Time

let alloc_ticks_per_run = 1000

let bench_alloc_ticks make_policy () =
  let engine = Skyloft_sim.Engine.create () in
  let t =
    Allocator.create ~engine ~policy:(make_policy ())
      ~interval:(Time'.us 5) ~total_cores:20 ()
  in
  let phase = ref 0 in
  Allocator.register t ~app:0 ~name:"lc" ~kind:Alloc_policy.Lc
    ~bounds:{ Allocator.guaranteed = 0; burstable = 20 }
    ~initial:10
    ~sample:(fun () ->
      incr phase;
      let congested = !phase land 8 <> 0 in
      {
        Allocator.runq_len = (if congested then 4 else 0);
        oldest_delay = (if congested then Time'.us 20 else 0);
        busy_ns = !phase * Time'.us (if congested then 48 else 5);
      })
    ~apply:(fun ~granted:_ ~delta:_ -> 0);
  Allocator.register t ~app:1 ~name:"be" ~kind:Alloc_policy.Be
    ~bounds:{ Allocator.guaranteed = 0; burstable = 20 }
    ~initial:10
    ~sample:(fun () ->
      { Allocator.runq_len = 100; oldest_delay = 0; busy_ns = !phase * Time'.us 45 })
    ~apply:(fun ~granted:_ ~delta -> Skyloft_hw.Costs.app_switch_ns * abs delta);
  for _ = 1 to alloc_ticks_per_run do
    Allocator.tick t
  done

let alloc_tests =
  Test.make_grouped ~name:"alloc"
    (List.map
       (fun (name, make_policy) ->
         Test.make ~name (Staged.stage (bench_alloc_ticks make_policy)))
       E.Colocate_alloc.policies)

let print_alloc_bench () =
  E.Report.section
    "Core allocator decision path (Bechamel; one tick, 2 apps, 20 cores)";
  let results = run_bench alloc_tests in
  E.Report.table
    ~header:[ "policy"; "ns per tick (this host)" ]
    (List.map
       (fun (name, _) ->
         [
           name;
           Printf.sprintf "%.0f"
             (estimate results (Printf.sprintf "alloc/%s" name)
             /. float_of_int alloc_ticks_per_run);
         ])
       E.Colocate_alloc.policies);
  E.Report.note "the controller runs every 5us of simulated time; its real cost";
  E.Report.note "per tick bounds how many apps/cores one iokernel-style core scales to"

(* The perf-trajectory artifact: LC p99 and BE CPU share per policy at 0.5x
   and 0.8x load, as JSON, so future changes can be compared mechanically. *)
let bench_alloc_json_path = "BENCH_alloc.json"

let write_bench_alloc_json config =
  let loads = [ 0.5; 0.8 ] in
  let per_policy =
    List.map
      (fun ((name, _) as policy) ->
        ( name,
          List.map
            (fun load_frac ->
              (load_frac, E.Colocate_alloc.run_point config ~policy ~load_frac))
            loads ))
      E.Colocate_alloc.policies
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"duration_ms\": %.3f,\n  \"seed\": %d,\n"
       (float_of_int config.E.Config.duration /. 1e6)
       config.E.Config.seed);
  Buffer.add_string buf "  \"policies\": {\n";
  List.iteri
    (fun i (name, pts) ->
      Buffer.add_string buf (Printf.sprintf "    %S: {\n" name);
      List.iteri
        (fun j (load_frac, (p : E.Colocate_alloc.point)) ->
          Buffer.add_string buf
            (Printf.sprintf
               "      \"%.1f\": { \"lc_p99_us\": %.2f, \"be_share\": %.4f }%s\n"
               load_frac p.E.Colocate_alloc.p99_us p.E.Colocate_alloc.be_share
               (if j = List.length pts - 1 then "" else ",")))
        pts;
      Buffer.add_string buf
        (Printf.sprintf "    }%s\n"
           (if i = List.length per_policy - 1 then "" else ",")))
    per_policy;
  Buffer.add_string buf "  }\n}\n";
  let oc = open_out bench_alloc_json_path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  E.Report.note "machine-readable per-policy results written to %s"
    bench_alloc_json_path

(* ---- observability layer (lib/obs) -------------------------------------- *)

(* Cost of the pull-based observation path itself: snapshotting a registry
   the size a two-app run produces, rendering it to Prometheus text, and
   the trace-analysis pass (utilization + invariants) over a full ring. *)
module Registry = Skyloft_obs.Registry
module Trace_analysis = Skyloft_obs.Trace_analysis
module Attribution = Skyloft_obs.Attribution
module Trace = Skyloft_stats.Trace
module Histogram' = Skyloft_stats.Histogram
module Timeseries' = Skyloft_stats.Timeseries

let obs_cores = 8
let obs_spans_per_core = 1000

let obs_registry () =
  let reg = Registry.create () in
  for c = 0 to obs_cores - 1 do
    let labels = [ Registry.core c ] in
    (* slot-backed per-core counter: same snapshot output as the closure
       form this used to be, but incremented as one unboxed slab word *)
    let slot = Registry.counter_slot reg ~labels "bench_counter" in
    Registry.bump_by reg slot c;
    Registry.gauge reg ~labels "bench_gauge" (fun () -> float_of_int c);
    let h = Histogram'.create () in
    for i = 1 to 100 do
      Histogram'.record h (i * 1000)
    done;
    Registry.histogram reg ~labels "bench_hist" h;
    let s = Timeseries'.create () in
    for i = 1 to 100 do
      Timeseries'.record s ~at:(i * 1000) i
    done;
    Registry.series reg ~labels "bench_series" s
  done;
  reg

let obs_trace () =
  let trace = Trace.create ~capacity:(obs_cores * obs_spans_per_core) () in
  for core = 0 to obs_cores - 1 do
    for i = 0 to obs_spans_per_core - 1 do
      let start = i * 2000 in
      Trace.span trace ~core ~app:(i land 1) ~name:"t" ~start ~stop:(start + 1000)
    done
  done;
  trace

let obs_tests =
  let reg = obs_registry () in
  let samples = Registry.snapshot ~until:(Time'.ms 1) reg in
  let trace = obs_trace () in
  Test.make_grouped ~name:"obs"
    [
      Test.make ~name:"snapshot"
        (Staged.stage (fun () -> ignore (Registry.snapshot ~until:(Time'.ms 1) reg)));
      Test.make ~name:"prometheus"
        (Staged.stage (fun () -> ignore (Registry.to_prometheus samples)));
      Test.make ~name:"analysis"
        (Staged.stage (fun () ->
             ignore (Trace_analysis.utilization trace ~until:(Time'.ms 2));
             ignore (Trace_analysis.check trace)));
    ]

let print_obs_bench () =
  E.Report.section
    "Observability layer (Bechamel; registry snapshot/render + trace analysis)";
  let results = run_bench obs_tests in
  E.Report.table
    ~header:[ "operation"; "ns per call (this host)" ]
    [
      [ Printf.sprintf "snapshot (%d instruments)" (4 * obs_cores);
        Printf.sprintf "%.0f" (estimate results "obs/snapshot") ];
      [ "prometheus render"; Printf.sprintf "%.0f" (estimate results "obs/prometheus") ];
      [ Printf.sprintf "trace analysis (%d spans)" (obs_cores * obs_spans_per_core);
        Printf.sprintf "%.0f" (estimate results "obs/analysis") ];
    ];
  E.Report.note "observation is pull-based: none of these costs exist inside a run"

(* ---- Runtime_core dispatch loop ----------------------------------------- *)

(* Real (host) cost of one trip through each runtime's dispatch loop over
   the shared Runtime_core substrate: a fixed batch of short requests is
   driven end to end through a small simulated machine, so the slope
   divided by the batch size is the per-request cost of admit, dequeue,
   switch accounting, completion and re-dispatch.  All four rows —
   percpu, centralized, hybrid and worksteal — run the identical lifecycle
   substrate on one of two dispatch mechanisms (worksteal is percpu under
   the steal-half policy, centralized is the pinned hybrid); the spread
   between them is the cost of each mechanism and policy on top. *)
module Machine = Skyloft_hw.Machine
module Topology = Skyloft_hw.Topology
module Kmod = Skyloft_kernel.Kmod
module Coro = Skyloft_sim.Coro

let core_requests_per_run = 200

let core_small_machine () =
  let engine = Skyloft_sim.Engine.create () in
  let machine =
    Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:8)
  in
  let kmod = Kmod.create machine in
  (engine, machine, kmod)

let core_drive engine submit =
  for i = 0 to core_requests_per_run - 1 do
    ignore
      (Skyloft_sim.Engine.at engine (i * Time'.us 2) (fun () -> submit ()))
  done;
  (* periodic timers (per-core ticks, the hybrid monitor) re-arm forever,
     so the run is bounded; 1 ms covers the 400 us arrival window. *)
  Skyloft_sim.Engine.run ~until:(Time'.ms 1) engine

let core_request () = Coro.Compute (Time'.us 1, fun () -> Coro.Exit)

let bench_core_percpu () =
  let engine, machine, kmod = core_small_machine () in
  let rt =
    Skyloft.Percpu.create machine kmod
      ~cores:[ 0; 1; 2; 3; 4 ]
      (Skyloft_policies.Work_stealing.create ~quantum:(Time'.us 30) ())
  in
  let lc = Skyloft.Percpu.create_app rt ~name:"lc" in
  core_drive engine (fun () ->
      ignore (Skyloft.Percpu.spawn rt lc ~name:"r" ~record:false (core_request ())))

let bench_core_centralized () =
  let engine, machine, kmod = core_small_machine () in
  let rt =
    Skyloft.Hybrid.create machine kmod ~dispatcher_core:0
      ~worker_cores:[ 1; 2; 3; 4 ] ~quantum:(Time'.us 30) ~adaptive:false
      (fst (Skyloft_policies.Shinjuku_shenango.create ()))
  in
  let lc = Skyloft.Hybrid.create_app rt ~name:"lc" in
  core_drive engine (fun () ->
      ignore
        (Skyloft.Hybrid.submit rt lc ~name:"r" ~record:false
           (core_request ())))

let bench_core_hybrid () =
  let engine, machine, kmod = core_small_machine () in
  let rt =
    Skyloft.Hybrid.create machine kmod ~dispatcher_core:0
      ~worker_cores:[ 1; 2; 3; 4 ] ~quantum:(Time'.us 30)
      (fst (Skyloft_policies.Shinjuku_shenango.create ()))
  in
  let lc = Skyloft.Hybrid.create_app rt ~name:"lc" in
  core_drive engine (fun () ->
      ignore
        (Skyloft.Hybrid.submit rt lc ~name:"r" ~record:false (core_request ())))

let bench_core_worksteal () =
  let engine, machine, kmod = core_small_machine () in
  let rt =
    Skyloft.Percpu.create machine kmod
      ~cores:[ 0; 1; 2; 3; 4 ]
      ~park:Skyloft_policies.Work_stealing.park
      (fst (Skyloft_policies.Work_stealing.steal_half ~quantum:(Time'.us 30) ()))
  in
  let lc = Skyloft.Percpu.create_app rt ~name:"lc" in
  core_drive engine (fun () ->
      ignore
        (Skyloft.Percpu.spawn rt lc ~name:"r" ~record:false (core_request ())))

(* The same three loops with the flight recorder attached: every span and
   scheduling instant is recorded into the flat binary ring, so the delta
   against the untraced numbers is the full tracing tax.  The ring is
   created once per bench and reused across iterations (the realistic
   deployment: one long-lived recorder, wrapping), so the measured tax
   is the push cost itself — a handful of unboxed word stores per
   event — not ring setup. *)
let core_traced bench_with_trace =
  let trace = Trace.create ~capacity:100_000 () in
  fun () -> bench_with_trace trace

let bench_core_percpu_traced =
  core_traced (fun trace ->
      let engine, machine, kmod = core_small_machine () in
      let rt =
        Skyloft.Percpu.create machine kmod
          ~cores:[ 0; 1; 2; 3; 4 ]
          (Skyloft_policies.Work_stealing.create ~quantum:(Time'.us 30) ())
      in
      Skyloft.Percpu.set_trace rt trace;
      let lc = Skyloft.Percpu.create_app rt ~name:"lc" in
      core_drive engine (fun () ->
          ignore
            (Skyloft.Percpu.spawn rt lc ~name:"r" ~record:false (core_request ()))))

let bench_core_centralized_traced =
  core_traced (fun trace ->
      let engine, machine, kmod = core_small_machine () in
      let rt =
        Skyloft.Hybrid.create machine kmod ~dispatcher_core:0
          ~worker_cores:[ 1; 2; 3; 4 ] ~quantum:(Time'.us 30) ~adaptive:false
          (fst (Skyloft_policies.Shinjuku_shenango.create ()))
      in
      Skyloft.Hybrid.set_trace rt trace;
      let lc = Skyloft.Hybrid.create_app rt ~name:"lc" in
      core_drive engine (fun () ->
          ignore
            (Skyloft.Hybrid.submit rt lc ~name:"r" ~record:false
               (core_request ()))))

let bench_core_hybrid_traced =
  core_traced (fun trace ->
      let engine, machine, kmod = core_small_machine () in
      let rt =
        Skyloft.Hybrid.create machine kmod ~dispatcher_core:0
          ~worker_cores:[ 1; 2; 3; 4 ] ~quantum:(Time'.us 30)
          (fst (Skyloft_policies.Shinjuku_shenango.create ()))
      in
      Skyloft.Hybrid.set_trace rt trace;
      let lc = Skyloft.Hybrid.create_app rt ~name:"lc" in
      core_drive engine (fun () ->
          ignore
            (Skyloft.Hybrid.submit rt lc ~name:"r" ~record:false
               (core_request ()))))

let bench_core_worksteal_traced =
  core_traced (fun trace ->
      let engine, machine, kmod = core_small_machine () in
      let rt =
        Skyloft.Percpu.create machine kmod
          ~cores:[ 0; 1; 2; 3; 4 ]
          ~park:Skyloft_policies.Work_stealing.park
          (fst
             (Skyloft_policies.Work_stealing.steal_half ~quantum:(Time'.us 30) ()))
      in
      Skyloft.Percpu.set_trace rt trace;
      let lc = Skyloft.Percpu.create_app rt ~name:"lc" in
      core_drive engine (fun () ->
          ignore
            (Skyloft.Percpu.spawn rt lc ~name:"r" ~record:false
               (core_request ()))))

let core_runtime_names = [ "percpu"; "centralized"; "hybrid"; "worksteal" ]

let core_tests =
  Test.make_grouped ~name:"runtime-core"
    [
      Test.make ~name:"percpu" (Staged.stage bench_core_percpu);
      Test.make ~name:"centralized" (Staged.stage bench_core_centralized);
      Test.make ~name:"hybrid" (Staged.stage bench_core_hybrid);
      Test.make ~name:"worksteal" (Staged.stage bench_core_worksteal);
      Test.make ~name:"percpu-traced" (Staged.stage bench_core_percpu_traced);
      Test.make ~name:"centralized-traced"
        (Staged.stage bench_core_centralized_traced);
      Test.make ~name:"hybrid-traced" (Staged.stage bench_core_hybrid_traced);
      Test.make ~name:"worksteal-traced"
        (Staged.stage bench_core_worksteal_traced);
    ]

(* ---- trace push: flat ring vs the boxed representation ------------------- *)

(* The re-backing's scoreboard at event granularity.  [Boxed_trace] is a
   faithful reimplementation of the representation the flight recorder
   replaced — one heap-allocated constructor per event stored into an
   [event option array], paying allocation, the write barrier on every
   ring store, and promotion of every retained event out of the minor
   heap.  The flat ring pays eight unsafe byte stores into preallocated
   [Bytes] and an interning memo hit.  Both push the identical event
   stream over a wrapping ring. *)
module Boxed_trace = struct
  type event =
    | Span of { core : int; app : int; name : string; start : int; stop : int }
    | Instant of { core : int; at : int; kind : int; name : string }

  type t = {
    capacity : int;
    ring : event option array;
    mutable head : int;
    mutable count : int;
    mutable dropped : int;
  }

  let create ~capacity =
    { capacity; ring = Array.make capacity None; head = 0; count = 0; dropped = 0 }

  let push t ev =
    t.ring.(t.head) <- Some ev;
    t.head <- (t.head + 1) mod t.capacity;
    if t.count = t.capacity then t.dropped <- t.dropped + 1
    else t.count <- t.count + 1

  let span t ~core ~app ~name ~start ~stop =
    push t (Span { core; app; name; start; stop })

  let instant t ~core ~at ~kind ~name = push t (Instant { core; at; kind; name })
end

let trace_events_per_run = 10_000
let trace_ring_capacity = 4_096  (* smaller than the stream: wrap included *)

let bench_trace_flat () =
  let t = Skyloft_stats.Trace.create ~capacity:trace_ring_capacity () in
  for i = 0 to trace_events_per_run - 1 do
    if i land 3 = 3 then
      Skyloft_stats.Trace.instant t ~core:(i land 7) ~at:(i * 50)
        Skyloft_stats.Trace.Preempt ~name:"tick"
    else
      Skyloft_stats.Trace.span t ~core:(i land 7) ~app:1 ~name:"req"
        ~start:(i * 50)
        ~stop:((i * 50) + 40)
  done

let bench_trace_boxed () =
  let t = Boxed_trace.create ~capacity:trace_ring_capacity in
  for i = 0 to trace_events_per_run - 1 do
    if i land 3 = 3 then
      Boxed_trace.instant t ~core:(i land 7) ~at:(i * 50) ~kind:0 ~name:"tick"
    else
      Boxed_trace.span t ~core:(i land 7) ~app:1 ~name:"req" ~start:(i * 50)
        ~stop:((i * 50) + 40)
  done

let trace_push_tests =
  Test.make_grouped ~name:"trace-push"
    [
      Test.make ~name:"flat" (Staged.stage bench_trace_flat);
      Test.make ~name:"boxed" (Staged.stage bench_trace_boxed);
    ]

(* The eventq re-backing's scoreboard at event granularity.  [Boxed_eventq]
   mirrors the boxed binary heap the flat SoA heap replaced: a 4-field
   entry record plus a 3-field handle record allocated per [schedule], and
   an [int ref] shared with every handle.  The flat heap moves three
   machine words per node in one preallocated int Bigarray and hands out
   int handles, so the identical schedule+pop stream allocates nothing. *)
module Boxed_eventq = struct
  type handle = {
    mutable cancelled : bool;
    mutable in_heap : bool;
    cancelled_in_heap : int ref;
  }

  type 'a entry = { time : int; seq : int; payload : 'a; handle : handle }

  type 'a t = {
    mutable heap : 'a entry array;
    mutable len : int;
    mutable next_seq : int;
    cancelled_in_heap : int ref;
  }

  let create () = { heap = [||]; len = 0; next_seq = 0; cancelled_in_heap = ref 0 }
  let entry_lt a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let grow t =
    let cap = Array.length t.heap in
    let fresh = Array.make (if cap = 0 then 16 else cap * 2) t.heap.(0) in
    Array.blit t.heap 0 fresh 0 t.len;
    t.heap <- fresh

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if entry_lt t.heap.(i) t.heap.(parent) then begin
        let tmp = t.heap.(i) in
        t.heap.(i) <- t.heap.(parent);
        t.heap.(parent) <- tmp;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let left = (2 * i) + 1 and right = (2 * i) + 2 in
    let smallest = ref i in
    if left < t.len && entry_lt t.heap.(left) t.heap.(!smallest) then smallest := left;
    if right < t.len && entry_lt t.heap.(right) t.heap.(!smallest) then
      smallest := right;
    if !smallest <> i then begin
      let tmp = t.heap.(i) in
      t.heap.(i) <- t.heap.(!smallest);
      t.heap.(!smallest) <- tmp;
      sift_down t !smallest
    end

  let schedule t ~at payload =
    let handle =
      { cancelled = false; in_heap = true; cancelled_in_heap = t.cancelled_in_heap }
    in
    let entry = { time = at; seq = t.next_seq; payload; handle } in
    t.next_seq <- t.next_seq + 1;
    if t.len = 0 && Array.length t.heap = 0 then t.heap <- Array.make 16 entry;
    if t.len = Array.length t.heap then grow t;
    t.heap.(t.len) <- entry;
    t.len <- t.len + 1;
    sift_up t (t.len - 1);
    handle

  let pop_raw t =
    if t.len = 0 then None
    else begin
      let top = t.heap.(0) in
      t.len <- t.len - 1;
      if t.len > 0 then begin
        t.heap.(0) <- t.heap.(t.len);
        sift_down t 0
      end;
      top.handle.in_heap <- false;
      if top.handle.cancelled then decr t.cancelled_in_heap;
      Some top
    end

  let rec pop t =
    match pop_raw t with
    | None -> None
    | Some e -> if e.handle.cancelled then pop t else Some (e.time, e.payload)
end

let eventq_ops_per_run = 1_000
let eventq_standing = 256  (* heap depth the round trips sift through *)

(* Steady state is the claim under test — the queues are built and warmed
   once, so the measured region is purely schedule+pop round trips at a
   standing heap depth (an engine mid-run), not queue construction or
   capacity growth.  The standing events sit at [max_int], so every pop
   returns the event just scheduled. *)
let eventq_flat_q =
  let module Eventq = Skyloft_sim.Eventq in
  let q = Eventq.create () in
  for _ = 1 to eventq_standing do
    ignore (Eventq.schedule q ~at:max_int ())
  done;
  (* one round trip so the last capacity doubling happens here, not in the
     first measured run *)
  ignore (Eventq.schedule q ~at:0 ());
  Eventq.pop_exn q;
  q

let eventq_flat_clock = ref 1

let bench_eventq_flat () =
  let module Eventq = Skyloft_sim.Eventq in
  let q = eventq_flat_q in
  let t = !eventq_flat_clock in
  for i = 0 to eventq_ops_per_run - 1 do
    ignore (Eventq.schedule q ~at:(t + i) ());
    Eventq.pop_exn q
  done;
  eventq_flat_clock := t + eventq_ops_per_run

let eventq_boxed_q =
  let q = Boxed_eventq.create () in
  for _ = 1 to eventq_standing do
    ignore (Boxed_eventq.schedule q ~at:max_int ())
  done;
  ignore (Boxed_eventq.schedule q ~at:0 ());
  ignore (Boxed_eventq.pop q);
  q

let eventq_boxed_clock = ref 1

let bench_eventq_boxed () =
  let q = eventq_boxed_q in
  let t = !eventq_boxed_clock in
  for i = 0 to eventq_ops_per_run - 1 do
    ignore (Boxed_eventq.schedule q ~at:(t + i) ());
    ignore (Boxed_eventq.pop q)
  done;
  eventq_boxed_clock := t + eventq_ops_per_run

let eventq_op_tests =
  Test.make_grouped ~name:"eventq-op"
    [
      Test.make ~name:"flat" (Staged.stage bench_eventq_flat);
      Test.make ~name:"boxed" (Staged.stage bench_eventq_boxed);
    ]

let bench_core_json_path = "BENCH_core.json"

let print_core_bench () =
  E.Report.section
    "Runtime_core dispatch loop (Bechamel; one short request end to end)";
  let results = run_bench core_tests in
  let per_req name =
    estimate results (Printf.sprintf "runtime-core/%s" name)
    /. float_of_int core_requests_per_run
  in
  E.Report.table
    ~header:
      [ "runtime"; "ns per request"; "ns per request (traced)"; "tracing tax" ]
    (List.map
       (fun name ->
         let plain = per_req name and traced = per_req (name ^ "-traced") in
         [
           name;
           Printf.sprintf "%.0f" plain;
           Printf.sprintf "%.0f" traced;
           Printf.sprintf "%+.0f%%" ((traced -. plain) /. plain *. 100.);
         ])
       core_runtime_names);
  E.Report.note "all four rows share the Runtime_core lifecycle substrate;";
  E.Report.note "the spread is each mechanism and policy's cost on top of it";
  let push_results = run_bench trace_push_tests in
  let per_event name =
    estimate push_results (Printf.sprintf "trace-push/%s" name)
    /. float_of_int trace_events_per_run
  in
  let flat = per_event "flat" and boxed = per_event "boxed" in
  E.Report.table
    ~header:[ "trace backend"; "ns per event (this host)" ]
    [
      [ "flat 64B binary ring"; Printf.sprintf "%.1f" flat ];
      [ "boxed ring (replaced)"; Printf.sprintf "%.1f" boxed ];
    ];
  E.Report.note
    "flat push stores 8 unboxed words into a preallocated Bigarray ring: \
     zero allocation, no write barrier — %.1fx the boxed representation it \
     replaced"
    (boxed /. flat);
  let eventq_results = run_bench eventq_op_tests in
  let per_op name =
    estimate eventq_results (Printf.sprintf "eventq-op/%s" name)
    /. float_of_int eventq_ops_per_run
  in
  let eq_flat = per_op "flat" and eq_boxed = per_op "boxed" in
  E.Report.table
    ~header:[ "eventq backend"; "ns per schedule+pop (this host)" ]
    [
      [ "flat SoA heap"; Printf.sprintf "%.1f" eq_flat ];
      [ "boxed heap (replaced)"; Printf.sprintf "%.1f" eq_boxed ];
    ];
  E.Report.note
    "the flat heap sifts 3-word nodes inside one int Bigarray and returns \
     int handles: schedule+pop allocates nothing — %.1fx the boxed heap it \
     replaced"
    (eq_boxed /. eq_flat);
  let buf = Buffer.create 256 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"requests_per_run\": %d,\n" core_requests_per_run);
  let obj key names value_of =
    Buffer.add_string buf (Printf.sprintf "  %S: {\n" key);
    List.iteri
      (fun i name ->
        Buffer.add_string buf
          (Printf.sprintf "    %S: %.1f%s\n" name (value_of name)
             (if i = List.length names - 1 then "" else ",")))
      names;
    Buffer.add_string buf "  },\n"
  in
  obj "ns_per_request" core_runtime_names per_req;
  obj "ns_per_request_traced" core_runtime_names (fun n ->
      per_req (n ^ "-traced"));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"eventq_ns_per_op\": { \"flat\": %.1f, \"boxed_reference\": %.1f, \
        \"speedup\": %.2f },\n"
       eq_flat eq_boxed (eq_boxed /. eq_flat));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"trace_ns_per_event\": { \"flat\": %.1f, \"boxed_reference\": \
        %.1f, \"speedup\": %.2f }\n"
       flat boxed (boxed /. flat));
  Buffer.add_string buf "}\n";
  let oc = open_out bench_core_json_path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  E.Report.note "dispatch-loop overhead written to %s" bench_core_json_path

(* The determinism artifact: per runtime, the attribution means and the
   fingerprints of the registry-on and registry-off runs — the two must be
   identical, proving observation never perturbs the simulation. *)
let bench_obs_json_path = "BENCH_obs.json"

let write_bench_obs_json config =
  let runs =
    List.map
      (fun ((name, _) as runtime) ->
        let on_ = E.Obs_report.run_point config ~runtime ~instrumented:true in
        let off = E.Obs_report.run_point config ~runtime ~instrumented:false in
        (name, on_, off))
      E.Obs_report.runtimes
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"duration_ms\": %.3f,\n  \"seed\": %d,\n"
       (float_of_int config.E.Config.duration /. 1e6)
       config.E.Config.seed);
  Buffer.add_string buf "  \"runtimes\": {\n";
  List.iteri
    (fun i (name, (on_ : E.Obs_report.point), (off : E.Obs_report.point)) ->
      let lc = List.assoc "lc" on_.E.Obs_report.rows in
      let mean h = Histogram'.mean h in
      Buffer.add_string buf (Printf.sprintf "    %S: {\n" name);
      Buffer.add_string buf
        (Printf.sprintf
           "      \"requests\": %d, \"mismatches\": %d, \"violations\": %d,\n"
           on_.E.Obs_report.requests on_.E.Obs_report.mismatches
           (List.length on_.E.Obs_report.violations));
      Buffer.add_string buf
        (Printf.sprintf
           "      \"fingerprint_on\": %S, \"fingerprint_off\": %S, \
            \"identical\": %b,\n"
           on_.E.Obs_report.fingerprint off.E.Obs_report.fingerprint
           (on_.E.Obs_report.fingerprint = off.E.Obs_report.fingerprint));
      Buffer.add_string buf
        (Printf.sprintf
           "      \"mean_ns\": { \"queueing\": %.1f, \"service\": %.1f, \
            \"overhead\": %.1f, \"stall\": %.1f, \"response\": %.1f }\n"
           (mean (Attribution.queueing lc))
           (mean (Attribution.service lc))
           (mean (Attribution.overhead lc))
           (mean (Attribution.stall lc))
           (mean (Attribution.response lc)));
      Buffer.add_string buf
        (Printf.sprintf "    }%s\n" (if i = List.length runs - 1 then "" else ",")))
    runs;
  Buffer.add_string buf "  }\n}\n";
  let oc = open_out bench_obs_json_path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  List.iter
    (fun (name, (on_ : E.Obs_report.point), (off : E.Obs_report.point)) ->
      if on_.E.Obs_report.fingerprint <> off.E.Obs_report.fingerprint then
        failwith
          (Printf.sprintf
             "BENCH_obs: %s registry-on run differs from registry-off run" name))
    runs;
  E.Report.note "obs determinism artifact written to %s" bench_obs_json_path

(* ---- domain-parallel experiment driver (lib/experiments) ---------------- *)

(* Wall-clock scaling of the [-j] sweep driver over the nine golden cells
   (three traced runs, three fault-sweep points, three obs reports — real
   simulations, seconds each).  Bechamel's per-run OLS is the wrong tool
   for a multi-second domain fan-out, so this measures wall time directly
   with the monotonic clock.  The digests must be identical at every job
   count — the same invariance the determinism gate checks — so the bench
   doubles as an end-to-end proof on whatever host runs it. *)
let bench_parallel_json_path = "BENCH_parallel.json"

let write_bench_parallel_json () =
  E.Report.section
    "Domain-parallel sweep driver: wall clock over the golden cells";
  (* Toolkit's MEASURE view of the monotonic clock: [get] is now-ns. *)
  let clock = Toolkit.Monotonic_clock.make () in
  let wall f =
    let t0 = Toolkit.Monotonic_clock.get clock in
    let r = f () in
    let t1 = Toolkit.Monotonic_clock.get clock in
    ((t1 -. t0) /. 1e9, r)
  in
  let host_cores = Domain.recommended_domain_count () in
  let jobs_levels = [ 1; 2; 4; 8 ] in
  let baseline = ref [] in
  let rows =
    List.map
      (fun jobs ->
        let secs, fps = wall (fun () -> E.Golden.fingerprints ~jobs ()) in
        if jobs = 1 then baseline := fps
        else if fps <> !baseline then
          failwith
            (Printf.sprintf
               "BENCH_parallel: -j %d produced different results" jobs);
        (jobs, secs))
      jobs_levels
  in
  let j1 = List.assoc 1 rows in
  E.Report.table
    ~header:[ "-j"; "wall (s)"; "speedup vs -j 1" ]
    (List.map
       (fun (jobs, secs) ->
         [
           string_of_int jobs;
           Printf.sprintf "%.2f" secs;
           Printf.sprintf "%.2fx" (j1 /. secs);
         ])
       rows);
  E.Report.note "results identical at every -j (checked against -j 1)";
  E.Report.note "host has %d core(s); speedup saturates at the core count"
    host_cores;
  let buf = Buffer.create 256 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"host_cores\": %d,\n" host_cores);
  Buffer.add_string buf "  \"cells\": 9,\n";
  Buffer.add_string buf "  \"wall_seconds\": {\n";
  List.iteri
    (fun i (jobs, secs) ->
      Buffer.add_string buf
        (Printf.sprintf "    \"%d\": { \"seconds\": %.3f, \"speedup\": %.3f }%s\n"
           jobs secs (j1 /. secs)
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  },\n";
  Buffer.add_string buf "  \"results_identical_across_jobs\": true\n";
  Buffer.add_string buf "}\n";
  let oc = open_out bench_parallel_json_path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  E.Report.note "driver scaling written to %s" bench_parallel_json_path

(* ---- scenario DSL throughput (lib/scenario) ----------------------------- *)

(* Host cost of the scale pipeline: wall clock and host-ns per simulated
   request for each scale scenario on each runtime, at a fixed request
   count small enough for a bench run but big enough to amortize setup.
   Like the parallel bench this is a direct monotonic-clock measurement
   (cells are 100 ms+ simulations, not Bechamel-OLS territory), and it
   doubles as an identity proof: the digest of every cell at [-j 4] must
   equal the [-j 1] digest byte for byte. *)
let bench_scenario_json_path = "BENCH_scenario.json"
let bench_scenario_requests = 100_000

let write_bench_scenario_json () =
  E.Report.section
    "Scenario DSL: host cost per simulated request (scale cells)";
  let clock = Toolkit.Monotonic_clock.make () in
  let wall f =
    let t0 = Toolkit.Monotonic_clock.get clock in
    let r = f () in
    let t1 = Toolkit.Monotonic_clock.get clock in
    ((t1 -. t0) /. 1e9, r)
  in
  let module Sc = Skyloft_scenario.Scenario in
  let cells =
    List.concat_map
      (fun sc -> List.map (fun rt -> (sc, rt)) E.Scale.runtimes)
      E.Scale.scenarios
  in
  let run_all ~jobs =
    E.Parallel.map ~jobs
      (fun (scenario, runtime) ->
        let secs, d =
          wall (fun () ->
              Sc.run ~seed:7 ~requests:bench_scenario_requests ~runtime scenario)
        in
        (secs, Sc.digest_string d))
      cells
  in
  let j1 = run_all ~jobs:1 in
  let j4 = run_all ~jobs:4 in
  List.iteri
    (fun i ((_, d1), (_, d4)) ->
      if not (String.equal d1 d4) then
        let sc, rt = List.nth cells i in
        failwith
          (Printf.sprintf "BENCH_scenario: %s/%s digest differs at -j 4"
             sc.Sc.name (Sc.runtime_name rt)))
    (List.combine j1 j4);
  let rows =
    List.map2
      (fun (sc, rt) (secs, _) ->
        ( sc.Sc.name,
          Sc.runtime_name rt,
          secs,
          secs *. 1e9 /. float_of_int bench_scenario_requests ))
      cells j1
  in
  E.Report.table
    ~header:[ "scenario"; "runtime"; "wall (s)"; "host ns/request" ]
    (List.map
       (fun (sc, rt, secs, nspr) ->
         [ sc; rt; Printf.sprintf "%.2f" secs; Printf.sprintf "%.0f" nspr ])
       rows);
  E.Report.note "%d requests per cell; digests at -j 4 == -j 1 (checked)"
    bench_scenario_requests;
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"requests_per_cell\": %d,\n" bench_scenario_requests);
  Buffer.add_string buf "  \"cells\": [\n";
  List.iteri
    (fun i (sc, rt, secs, nspr) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"scenario\": \"%s\", \"runtime\": \"%s\", \"wall_seconds\": \
            %.3f, \"host_ns_per_request\": %.1f }%s\n"
           sc rt secs nspr
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"digests_identical_j1_j4\": true\n";
  Buffer.add_string buf "}\n";
  let oc = open_out bench_scenario_json_path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  E.Report.note "scenario throughput written to %s" bench_scenario_json_path

(* ---- oversubscription bench: broker cost per request -------------------- *)

let bench_oversub_json_path = "BENCH_oversub.json"
let bench_oversub_requests = 2_000

let write_bench_oversub_json () =
  E.Report.section
    "Oversubscribed machine: host cost per simulated request (broker cells)";
  let clock = Toolkit.Monotonic_clock.make () in
  let wall f =
    let t0 = Toolkit.Monotonic_clock.get clock in
    let r = f () in
    let t1 = Toolkit.Monotonic_clock.get clock in
    ((t1 -. t0) /. 1e9, r)
  in
  (* one cell per (mix, scenario) at a fixed fleet size: the broker's own
     overhead dominates here, not the workload *)
  let n = 8 in
  let cells =
    List.concat_map
      (fun mix -> List.map (fun sc -> (mix, sc)) E.Oversub.scenarios)
      E.Oversub.mixes
  in
  let run_all ~jobs =
    E.Parallel.map ~jobs
      (fun (mix, scenario) ->
        let secs, r =
          wall (fun () ->
              E.Oversub.run_cell ~seed:7 ~mix ~n ~scenario
                ~requests:bench_oversub_requests)
        in
        (secs, Skyloft_scenario.Placement.digest_string r))
      cells
  in
  let j1 = run_all ~jobs:1 in
  let j4 = run_all ~jobs:4 in
  List.iteri
    (fun i ((_, d1), (_, d4)) ->
      if not (String.equal d1 d4) then
        let mix, sc = List.nth cells i in
        failwith
          (Printf.sprintf "BENCH_oversub: %s/%s digest differs at -j 4" mix sc))
    (List.combine j1 j4);
  let total_requests = n * bench_oversub_requests in
  let rows =
    List.map2
      (fun (mix, sc) (secs, _) ->
        (mix, sc, secs, secs *. 1e9 /. float_of_int total_requests))
      cells j1
  in
  E.Report.table
    ~header:[ "mix"; "scenario"; "wall (s)"; "host ns/request" ]
    (List.map
       (fun (mix, sc, secs, nspr) ->
         [ mix; sc; Printf.sprintf "%.2f" secs; Printf.sprintf "%.0f" nspr ])
       rows);
  E.Report.note
    "%d tenants x %d requests per cell; digests at -j 4 == -j 1 (checked)" n
    bench_oversub_requests;
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"tenants\": %d,\n" n);
  Buffer.add_string buf
    (Printf.sprintf "  \"requests_per_tenant\": %d,\n" bench_oversub_requests);
  Buffer.add_string buf "  \"cells\": [\n";
  List.iteri
    (fun i (mix, sc, secs, nspr) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"mix\": \"%s\", \"scenario\": \"%s\", \"wall_seconds\": \
            %.3f, \"host_ns_per_request\": %.1f }%s\n"
           mix sc secs nspr
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"digests_identical_j1_j4\": true\n";
  Buffer.add_string buf "}\n";
  let oc = open_out bench_oversub_json_path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  E.Report.note "oversub throughput written to %s" bench_oversub_json_path

(* ---- main --------------------------------------------------------------- *)

let () =
  let config =
    match Sys.getenv_opt "SKYLOFT_BENCH" with
    | Some "quick" -> E.Config.quick
    | Some "full" -> E.Config.full
    | Some "default" | None | Some _ -> E.Config.default
  in
  Printf.printf "Skyloft reproduction benchmark harness\n";
  Printf.printf "(simulated duration per data point: %s; seed %d)\n"
    (Format.asprintf "%a" Skyloft_sim.Time.pp config.E.Config.duration)
    config.E.Config.seed;

  (* SKYLOFT_BENCH_ONLY=core: just the dispatch-loop + trace-push
     microbenches and BENCH_core.json (the flight-recorder scoreboard). *)
  if Sys.getenv_opt "SKYLOFT_BENCH_ONLY" = Some "core" then begin
    print_core_bench ();
    exit 0
  end;

  (* Microbenchmarks (real code measured on this host). *)
  print_table7_measured ();
  print_sim_bench ();
  print_alloc_bench ();
  print_obs_bench ();
  print_core_bench ();

  (* Tables. *)
  ignore (E.Tables.print_table4 ());
  E.Tables.print_table5 ();
  ignore (E.Tables.print_table6 ());
  ignore (E.Tables.print_table7_model ());
  E.Tables.print_appswitch ();

  (* Figures. *)
  ignore (E.Fig5.print config);
  ignore (E.Fig6.print config);
  ignore (E.Fig7.print_a config);
  let b = E.Fig7.print_b config in
  ignore (E.Fig7.print_c config b);
  ignore (E.Fig8.print_a config);
  ignore (E.Fig8.print_b config);

  (* Core-allocation policy comparison (lib/alloc) + perf-trajectory JSON. *)
  ignore (E.Colocate_alloc.print config);
  write_bench_alloc_json config;

  (* Fault-rate sweep (lib/fault): recovery machinery + BENCH_fault.json. *)
  ignore (E.Fault_sweep.print config);

  (* Observability layer (lib/obs): attribution identity, trace invariants,
     and the registry-on == registry-off determinism proof + BENCH_obs.json. *)
  write_bench_obs_json config;

  (* Domain-parallel sweep driver: -j scaling + cross-jobs identity proof
     + BENCH_parallel.json. *)
  write_bench_parallel_json ();

  (* Scenario DSL (lib/scenario): host cost per simulated request over the
     scale cells + -j identity proof + BENCH_scenario.json. *)
  write_bench_scenario_json ();

  (* Core broker (lib/alloc + lib/scenario placement): oversubscribed
     multi-tenant cells + -j identity proof + BENCH_oversub.json. *)
  write_bench_oversub_json ();

  (* Ablations of the design choices (DESIGN.md §5). *)
  E.Ablations.print config;
  Printf.printf "\nAll tables and figures regenerated.\n"
