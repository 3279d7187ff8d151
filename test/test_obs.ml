(* The observability layer (lib/obs): metrics registry semantics and
   exposition formats, latency-attribution bookkeeping, and the
   trace-analysis invariant checker — ending with a small end-to-end
   per-CPU run whose every request must satisfy the attribution identity
   and whose trace must pass the checker. *)

open Alcotest
module Engine = Skyloft_sim.Engine
module Time = Skyloft_sim.Time
module Coro = Skyloft_sim.Coro
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Kmod = Skyloft_kernel.Kmod
module Percpu = Skyloft.Percpu
module App = Skyloft.App
module Histogram = Skyloft_stats.Histogram
module Timeseries = Skyloft_stats.Timeseries
module Trace = Skyloft_stats.Trace
module Registry = Skyloft_obs.Registry
module Attribution = Skyloft_obs.Attribution
module Trace_analysis = Skyloft_obs.Trace_analysis
module Rc = Skyloft.Runtime_core

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* ---- registry ---- *)

let test_registry_name_validation () =
  let reg = Registry.create () in
  check_raises "invalid metric name"
    (Invalid_argument {|Registry: invalid metric name "9bad"|})
    (fun () -> Registry.counter reg "9bad" (fun () -> 0));
  check_raises "invalid label name"
    (Invalid_argument {|Registry: invalid label name "bad-label"|})
    (fun () ->
      Registry.counter reg ~labels:[ ("bad-label", "x") ] "ok" (fun () -> 0))

let test_registry_duplicate_rejected () =
  let reg = Registry.create () in
  Registry.counter reg ~labels:[ Registry.core 0 ] "dup_total" (fun () -> 1);
  (* same name, different labels: fine *)
  Registry.counter reg ~labels:[ Registry.core 1 ] "dup_total" (fun () -> 2);
  (* same name, same labels (in any order): rejected *)
  check_raises "duplicate (name, labels) rejected"
    (Invalid_argument "Registry: duplicate metric dup_total{core=0}")
    (fun () ->
      Registry.counter reg ~labels:[ Registry.core 0 ] "dup_total" (fun () -> 3));
  check int "both registered" 2 (Registry.size reg)

let test_registry_snapshot_isolation () =
  let reg = Registry.create () in
  let n = ref 1 in
  Registry.counter reg "live_total" (fun () -> !n);
  let h = Histogram.create () in
  Histogram.record h 100;
  Registry.histogram reg "lat_ns" h;
  let s1 = Registry.snapshot reg in
  n := 41;
  Histogram.record h 900;
  let s2 = Registry.snapshot reg in
  (match Registry.find s1 "live_total" with
  | Some (Registry.Counter 1) -> ()
  | _ -> fail "first snapshot must keep the old counter value");
  (match Registry.find s2 "live_total" with
  | Some (Registry.Counter 41) -> ()
  | _ -> fail "second snapshot must see the new counter value");
  match (Registry.find s1 "lat_ns", Registry.find s2 "lat_ns") with
  | Some (Registry.Summary a), Some (Registry.Summary b) ->
      check int "old summary count" 1 a.count;
      check int "new summary count" 2 b.count
  | _ -> fail "histogram materialises as a summary"

let test_registry_prometheus_format () =
  let reg = Registry.create () in
  Registry.counter reg
    ~labels:[ ("app", "a\"b\\c\nd") ]
    ~help:"requests served" "req_total" (fun () -> 7);
  Registry.gauge reg "share" (fun () -> 0.5);
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 100; 200; 300; 400 ];
  Registry.histogram reg "lat_ns" h;
  let text = Registry.to_prometheus (Registry.snapshot reg) in
  check bool "HELP line" true (contains ~needle:"# HELP req_total requests served" text);
  check bool "TYPE counter" true (contains ~needle:"# TYPE req_total counter" text);
  check bool "label value escaped" true
    (contains ~needle:{|req_total{app="a\"b\\c\nd"} 7|} text);
  check bool "summary type" true (contains ~needle:"# TYPE lat_ns summary" text);
  check bool "p99 quantile row" true (contains ~needle:{|lat_ns{quantile="0.99"}|} text);
  check bool "count row" true (contains ~needle:"lat_ns_count 4" text);
  check bool "gauge row" true (contains ~needle:"share 0.5" text)

let test_registry_series_level () =
  let reg = Registry.create () in
  let s = Timeseries.create () in
  Timeseries.record s ~at:0 2;
  Timeseries.record s ~at:100 6;
  Registry.series reg "depth" s;
  let snap = Registry.snapshot ~until:200 reg in
  match Registry.find snap "depth" with
  | Some (Registry.Level l) ->
      check int "last" 6 l.last;
      check int "max" 6 l.max;
      (* 2 for 100 ns then 6 for 100 ns *)
      check (float 1e-6) "time-weighted mean" 4.0 l.mean
  | _ -> fail "series materialises as a level"

(* ---- attribution ---- *)

let test_attribution_identity () =
  let a = Attribution.create () in
  (* exact: queueing 10 + overhead 3 + stall 2 + service 85 = 100 *)
  Attribution.record a ~queueing:10 ~overhead:3 ~stall:2 ~response:100 ~declared:85;
  check int "one request" 1 (Attribution.requests a);
  check int "no mismatch" 0 (Attribution.mismatches a);
  check (float 1e-6) "service is the residue" 85.0
    (Histogram.mean (Attribution.service a));
  (* residue 90 <> declared 85: mismatch *)
  Attribution.record a ~queueing:5 ~overhead:3 ~stall:2 ~response:100 ~declared:85;
  check int "residue/declared disagreement counted" 1 (Attribution.mismatches a);
  (* negative residue: mismatch even with declared 0 *)
  Attribution.record a ~queueing:80 ~overhead:30 ~stall:0 ~response:100 ~declared:0;
  check int "negative residue counted" 2 (Attribution.mismatches a);
  check int "three requests" 3 (Attribution.requests a)

let test_attribution_registers () =
  let reg = Registry.create () in
  let a = Attribution.create () in
  Attribution.record a ~queueing:1 ~overhead:1 ~stall:1 ~response:10 ~declared:7;
  Attribution.register reg ~labels:[ Registry.app "lc" ] a;
  let snap = Registry.snapshot reg in
  match
    Registry.find snap ~labels:[ Registry.app "lc" ] "skyloft_latency_requests_total"
  with
  | Some (Registry.Counter 1) -> ()
  | _ -> fail "attribution request counter registered under the app label"

(* ---- trace analysis ---- *)

let test_analysis_utilization () =
  let trace = Trace.create () in
  Trace.span trace ~core:0 ~app:1 ~name:"a" ~start:0 ~stop:100;
  Trace.span trace ~core:0 ~app:2 ~name:"b" ~start:150 ~stop:250;
  Trace.span trace ~core:1 ~app:1 ~name:"c" ~start:0 ~stop:400;
  Trace.instant trace ~core:0 ~at:400 Trace.Wakeup ~name:"w";
  let reports = Trace_analysis.utilization trace ~until:400 in
  check int "two cores" 2 (List.length reports);
  let r0 = List.nth reports 0 in
  check int "core id ordered" 0 r0.Trace_analysis.core;
  check int "busy" 200 r0.Trace_analysis.busy_ns;
  check int "idle" 200 r0.Trace_analysis.idle_ns;
  check int "spans" 2 r0.Trace_analysis.spans;
  check int "instants" 1 r0.Trace_analysis.instants;
  check (list (pair int int)) "per-app busy" [ (1, 100); (2, 100) ]
    r0.Trace_analysis.per_app;
  check (float 1e-6) "busy share" 0.5 (Trace_analysis.busy_share r0);
  let r1 = List.nth reports 1 in
  check int "core 1 fully busy" 0 r1.Trace_analysis.idle_ns

let test_analysis_valid_trace () =
  let trace = Trace.create () in
  Trace.span trace ~core:0 ~app:1 ~name:"a" ~start:0 ~stop:100;
  Trace.instant trace ~core:0 ~at:100 Trace.Preempt ~name:"a";
  (* back-to-back spans share an edge: not an overlap *)
  Trace.span trace ~core:0 ~app:1 ~name:"b" ~start:100 ~stop:180;
  (* same interval on another core: fine *)
  Trace.span trace ~core:1 ~app:1 ~name:"c" ~start:0 ~stop:180;
  check int "valid trace has no violations" 0
    (List.length (Trace_analysis.check trace))

(* A violation as the reports print it: "core C @ T ns: what". *)
let shown v = Format.asprintf "%a" Trace_analysis.pp_violation v

let test_analysis_overlap_detected () =
  let trace = Trace.create () in
  Trace.span trace ~core:0 ~app:1 ~name:"a" ~start:0 ~stop:100;
  Trace.span trace ~core:0 ~app:1 ~name:"b" ~start:60 ~stop:160;
  match Trace_analysis.check trace with
  | [ v ] ->
      check bool "on the shared core" true (String.starts_with ~prefix:"core 0 @" (shown v));
      check bool "overlap reported" true (contains ~needle:"overlaps" (shown v))
  | l -> fail (Printf.sprintf "expected exactly one violation, got %d" (List.length l))

let test_analysis_orphan_preempt_detected () =
  let trace = Trace.create () in
  Trace.span trace ~core:0 ~app:1 ~name:"a" ~start:0 ~stop:100;
  Trace.instant trace ~core:0 ~at:300 Trace.Preempt ~name:"a";
  (* a non-preempt instant outside every span is fine *)
  Trace.instant trace ~core:0 ~at:350 Trace.Wakeup ~name:"w";
  match Trace_analysis.check trace with
  | [ v ] ->
      check bool "at the orphan instant" true (contains ~needle:"@ 300 ns:" (shown v));
      check bool "containment reported" true
        (contains ~needle:"outside every span" (shown v))
  | l -> fail (Printf.sprintf "expected exactly one violation, got %d" (List.length l))

let test_analysis_nonmonotone_detected () =
  let trace = Trace.create () in
  Trace.span trace ~core:0 ~app:1 ~name:"a" ~start:200 ~stop:300;
  Trace.span trace ~core:1 ~app:1 ~name:"b" ~start:0 ~stop:100;
  let vs = Trace_analysis.check trace in
  check bool "emission-order regression reported" true
    (List.exists
       (fun v -> contains ~needle:"backwards" (shown v))
       vs)

let test_analysis_counter_tracks () =
  let trace = Trace.create () in
  Trace.span trace ~core:0 ~app:1 ~name:"a" ~start:0 ~stop:100;
  let s = Timeseries.create () in
  Timeseries.record s ~at:50 3;
  let json = Trace_analysis.to_chrome_json ~counters:[ ("depth", s) ] trace in
  check bool "counter event present" true
    (contains ~needle:{|"name":"depth","ph":"C","ts":0.050|} json);
  check bool "counter value" true (contains ~needle:{|"args":{"value":3}|} json);
  check bool "dropped metadata trailer" true
    (contains ~needle:{|"name":"skyloft_dropped","ph":"M"|} json)

(* ---- end to end: a traced per-CPU run must satisfy everything ---- *)

let test_end_to_end_percpu () =
  let engine = Engine.create ~seed:7 () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:2) in
  let kmod = Kmod.create machine in
  let rt =
    Percpu.runtime
      (Percpu.create machine kmod ~cores:[ 0; 1 ]
         (Skyloft_policies.Work_stealing.create ~quantum:(Time.us 20) ()))
  in
  let trace = Trace.create () in
  Rc.set_trace rt trace;
  let app = Rc.create_app rt ~name:"lc" in
  let reg = Registry.create () in
  Rc.register_metrics rt reg;
  for i = 0 to 19 do
    Engine.at engine (i * Time.us 10) (fun () ->
        let service = Time.us 5 + (i mod 4 * Time.us 25) in
        if i mod 5 = 0 then begin
          (* block mid-service; woken externally — a fault stall *)
          let s1 = service / 2 in
          let s2 = service - s1 in
          let task =
            Rc.spawn rt app ~service ~name:(Printf.sprintf "f%d" i)
              (Coro.Compute
                 ( s1,
                   fun () ->
                     Coro.Block (fun () -> Coro.Compute (s2, fun () -> Coro.Exit))
                 ))
          in
          Engine.after engine (s1 + Time.us 30) (fun () ->
              Rc.wakeup rt task)
        end
        else
          ignore
            (Rc.spawn rt app ~service ~name:(Printf.sprintf "t%d" i)
               (Coro.Compute (service, fun () -> Coro.Exit))))
  done;
  Engine.run ~until:(Time.ms 2) engine;
  let a = app.App.attribution in
  check int "all requests completed and recorded" 20 (Attribution.requests a);
  check int "identity holds for every request" 0 (Attribution.mismatches a);
  check bool "quantum preemptions charged some overhead" true
    (Histogram.mean (Attribution.overhead a) > 0.0);
  check bool "blocked requests charged some stall" true
    (Histogram.mean (Attribution.stall a) > 0.0);
  check int "trace invariants hold" 0 (List.length (Trace_analysis.check trace));
  let snap = Registry.snapshot ~until:(Time.ms 2) reg in
  (match
     Registry.find snap
       ~labels:[ Registry.app "lc" ]
       "skyloft_latency_requests_total"
   with
  | Some (Registry.Counter 20) -> ()
  | _ -> fail "registry sees the 20 attributed requests");
  match
    Registry.find snap ~labels:[ ("runtime", "percpu") ]
      "skyloft_runtime_task_switches_total"
  with
  | Some (Registry.Counter n) -> check bool "switch counter live" true (n > 0)
  | _ -> fail "runtime counters registered"

(* One schema: every configuration built by the one constructor
   registers the identical set of [skyloft_runtime_*] names, so a single
   Prometheus query compares all runtimes (the [runtime] label tells them
   apart). *)
let test_runtime_metric_schema () =
  let module Scenario = Skyloft_scenario.Scenario in
  let names runtime =
    let engine = Engine.create () in
    let machine =
      Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:5)
    in
    let rt =
      Scenario.build machine (Kmod.create machine) ~first_core:0 ~cores:4 runtime
    in
    let reg = Registry.create () in
    Rc.register_metrics rt reg;
    let mechanism =
      if Scenario.dispatcher_cores runtime = 0 then "percpu" else "hybrid"
    in
    Registry.snapshot reg
    |> List.filter_map (fun s ->
           let name = Registry.sample_name s in
           if String.starts_with ~prefix:"skyloft_runtime_" name then begin
             check (list (pair string string))
               (name ^ " carries the runtime label")
               [ ("runtime", mechanism) ] (Registry.sample_labels s);
             Some name
           end
           else None)
    |> List.sort_uniq compare
  in
  let percpu = names Scenario.Percpu in
  check bool "the shared family is registered" true (List.length percpu >= 10);
  List.iter
    (fun runtime ->
      check (list string)
        (Scenario.runtime_name runtime ^ " registers the percpu name set")
        percpu (names runtime))
    Scenario.[ Centralized; Hybrid; Worksteal ]

let suite =
  [
    test_case "registry name validation" `Quick test_registry_name_validation;
    test_case "registry duplicate rejected" `Quick test_registry_duplicate_rejected;
    test_case "snapshot isolation" `Quick test_registry_snapshot_isolation;
    test_case "prometheus exposition" `Quick test_registry_prometheus_format;
    test_case "series level" `Quick test_registry_series_level;
    test_case "attribution identity + mismatches" `Quick test_attribution_identity;
    test_case "attribution registers" `Quick test_attribution_registers;
    test_case "utilization from spans" `Quick test_analysis_utilization;
    test_case "valid trace passes" `Quick test_analysis_valid_trace;
    test_case "overlap detected" `Quick test_analysis_overlap_detected;
    test_case "orphan preempt detected" `Quick test_analysis_orphan_preempt_detected;
    test_case "non-monotone emission detected" `Quick test_analysis_nonmonotone_detected;
    test_case "perfetto counter tracks" `Quick test_analysis_counter_tracks;
    test_case "one runtime metric schema" `Quick test_runtime_metric_schema;
    test_case "end-to-end percpu run" `Quick test_end_to_end_percpu;
  ]
