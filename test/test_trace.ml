(* Tests for the scheduling tracer and its runtime integration. *)

module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Coro = Skyloft_sim.Coro
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Kmod = Skyloft_kernel.Kmod
module Trace = Skyloft_stats.Trace
module Percpu = Skyloft.Percpu
module Rc = Skyloft.Runtime_core

let check = Alcotest.check

let test_trace_basic () =
  let trace = Trace.create () in
  Trace.span trace ~core:0 ~app:1 ~name:"task" ~start:100 ~stop:200;
  Trace.instant trace ~core:0 ~at:150 Trace.Preempt ~name:"task";
  check Alcotest.int "two events" 2 (Trace.events trace);
  check Alcotest.int "no drops" 0 (Trace.dropped trace)

let test_trace_ring_bounded () =
  let trace = Trace.create ~capacity:10 () in
  for i = 0 to 24 do
    Trace.instant trace ~core:0 ~at:i Trace.Wakeup ~name:"x"
  done;
  check Alcotest.int "retains capacity" 10 (Trace.events trace);
  check Alcotest.int "drops counted" 15 (Trace.dropped trace)

let test_trace_invalid_span () =
  let trace = Trace.create () in
  check Alcotest.bool "stop before start raises" true
    (try
       Trace.span trace ~core:0 ~app:0 ~name:"x" ~start:10 ~stop:5;
       false
     with Invalid_argument _ -> true)

let test_trace_chrome_json_shape () =
  let trace = Trace.create () in
  Trace.span trace ~core:2 ~app:7 ~name:"he\"llo" ~start:1_000 ~stop:3_500;
  Trace.instant trace ~core:1 ~at:2_000 Trace.App_switch ~name:"b";
  let json = Trace.to_chrome_json trace in
  check Alcotest.bool "array" true
    (String.length json > 2 && json.[0] = '[' && json.[String.length json - 1] = ']');
  check Alcotest.bool "span present with dur" true
    (let re = Str.regexp_string {|"ph":"X","ts":1.000,"dur":2.500,"pid":7,"tid":2|} in
     try
       ignore (Str.search_forward re json 0);
       true
     with Not_found -> false);
  check Alcotest.bool "quote escaped" true
    (let re = Str.regexp_string {|he\"llo|} in
     try
       ignore (Str.search_forward re json 0);
       true
     with Not_found -> false)

let test_trace_runtime_integration () =
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:4) in
  let kmod = Kmod.create machine in
  let rt =
    Percpu.runtime
      (Percpu.create machine kmod ~cores:[ 0 ]
         (Skyloft_policies.Rr.create ~slice:(Time.us 20) ()))
  in
  let trace = Trace.create () in
  Rc.set_trace rt trace;
  let app = Rc.create_app rt ~name:"a" in
  ignore (Rc.spawn rt app ~name:"long" (Coro.compute_then_exit (Time.us 200)));
  ignore (Rc.spawn rt app ~name:"other" (Coro.compute_then_exit (Time.us 200)));
  Engine.run ~until:(Time.ms 2) engine;
  (* two interleaved tasks: several run spans and preempt instants *)
  check Alcotest.bool "events recorded" true (Trace.events trace > 5);
  let json = Trace.to_chrome_json trace in
  check Alcotest.bool "preempt instants present" true
    (try
       ignore (Str.search_forward (Str.regexp_string {|"name":"preempt:|}) json 0);
       true
     with Not_found -> false);
  check Alcotest.bool "run spans present" true
    (try
       ignore (Str.search_forward (Str.regexp_string {|"name":"long"|}) json 0);
       true
     with Not_found -> false)

let test_trace_dropped_metadata () =
  let trace = Trace.create ~capacity:4 () in
  for i = 0 to 9 do
    Trace.instant trace ~core:0 ~at:i Trace.Wakeup ~name:"x"
  done;
  let json = Trace.to_chrome_json trace in
  check Alcotest.bool "metadata trailer records the drop count" true
    (try
       ignore
         (Str.search_forward
            (Str.regexp_string
               {|"name":"skyloft_dropped","ph":"M","pid":0,"tid":0,"args":{"dropped":6,"retained":4}|})
            json 0);
       true
     with Not_found -> false)

let test_trace_write_file () =
  let trace = Trace.create () in
  Trace.span trace ~core:0 ~app:0 ~name:"t" ~start:0 ~stop:10;
  let path = Filename.temp_file "skyloft" ".json" in
  Trace.write_chrome_json trace ~path;
  let ic = open_in path in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  check Alcotest.string "file matches" (Trace.to_chrome_json trace) content

let suite =
  [
    Alcotest.test_case "trace: basic" `Quick test_trace_basic;
    Alcotest.test_case "trace: bounded ring" `Quick test_trace_ring_bounded;
    Alcotest.test_case "trace: invalid span" `Quick test_trace_invalid_span;
    Alcotest.test_case "trace: chrome json" `Quick test_trace_chrome_json_shape;
    Alcotest.test_case "trace: runtime integration" `Quick test_trace_runtime_integration;
    Alcotest.test_case "trace: dropped metadata" `Quick test_trace_dropped_metadata;
    Alcotest.test_case "trace: write file" `Quick test_trace_write_file;
  ]
