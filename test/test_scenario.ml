(* Tests for the scenario DSL (lib/scenario): arrival processes, service
   shapes, scenario validation, compilation semantics onto the runtimes,
   digest determinism, and the bounded-memory property the million-request
   scale cells depend on. *)

open Alcotest
module Time = Skyloft_sim.Time
module Rng = Skyloft_sim.Rng
module Dist = Skyloft_sim.Dist
module Histogram = Skyloft_stats.Histogram
module Arrival = Skyloft_scenario.Arrival
module Shape = Skyloft_scenario.Shape
module Scenario = Skyloft_scenario.Scenario

let invalid f = try f (); false with Invalid_argument _ -> true

(* ---- Arrival ----------------------------------------------------------- *)

let test_arrival_validate () =
  check bool "zero poisson rate" true
    (invalid (fun () -> Arrival.validate (Arrival.Poisson { rate_rps = 0.0 })));
  check bool "negative mmpp rate" true
    (invalid (fun () ->
         Arrival.validate
           (Arrival.Mmpp
              { rate_on = -1.0; rate_off = 0.0; mean_on = Time.ms 1;
                mean_off = Time.ms 1 })));
  check bool "all-zero mmpp rates" true
    (invalid (fun () ->
         Arrival.validate
           (Arrival.Mmpp
              { rate_on = 0.0; rate_off = 0.0; mean_on = Time.ms 1;
                mean_off = Time.ms 1 })));
  check bool "non-positive sojourn" true
    (invalid (fun () ->
         Arrival.validate
           (Arrival.Mmpp
              { rate_on = 1.0; rate_off = 0.0; mean_on = 0; mean_off = Time.ms 1 })));
  check bool "empty diurnal" true
    (invalid (fun () -> Arrival.validate (Arrival.Diurnal { segments = [] })));
  check bool "all-zero diurnal" true
    (invalid (fun () ->
         Arrival.validate
           (Arrival.Diurnal { segments = [ (Time.ms 1, 0.0) ] })));
  (* zero-rate nights are fine as long as one segment is positive *)
  Arrival.validate
    (Arrival.Diurnal { segments = [ (Time.ms 1, 0.0); (Time.ms 1, 100.0) ] })

let test_arrival_mean_rate () =
  check (float 1e-9) "poisson" 5_000.0
    (Arrival.mean_rate (Arrival.Poisson { rate_rps = 5_000.0 }));
  (* MMPP: sojourn-weighted: (1e6*2 + 1e5*6) / 8 = 325k *)
  check (float 1e-6) "mmpp weighted" 325_000.0
    (Arrival.mean_rate
       (Arrival.Mmpp
          { rate_on = 1_000_000.0; rate_off = 100_000.0; mean_on = Time.ms 2;
            mean_off = Time.ms 6 }));
  (* diurnal: duration-weighted: (2*30k + 3*12k + 5*1.5k) / 10 = 10.35k *)
  check (float 1e-6) "diurnal weighted" 10_350.0
    (Arrival.mean_rate
       (Arrival.Diurnal
          { segments =
              [ (Time.ms 2, 30_000.0); (Time.ms 3, 12_000.0);
                (Time.ms 5, 1_500.0) ] }))

(* Drive a sampler over [horizon] of virtual time; returns arrival count
   after checking times are nondecreasing. *)
let drain_sampler next ~horizon =
  let count = ref 0 and now = ref 0 and go = ref true in
  while !go do
    match next ~now:!now with
    | None -> go := false
    | Some at ->
        check bool "arrivals nondecreasing" true (at >= !now);
        if at >= horizon then go := false
        else begin
          incr count;
          now := at
        end
  done;
  !count

let test_arrival_empirical_rates () =
  List.iter
    (fun (name, arrival, horizon_ms, tol) ->
      let next = Arrival.sampler arrival (Rng.create ~seed:1) in
      let horizon = Time.ms horizon_ms in
      let n = drain_sampler next ~horizon in
      let expected =
        Arrival.mean_rate arrival *. (float_of_int horizon /. 1e9)
      in
      let rel = abs_float (float_of_int n -. expected) /. expected in
      check bool
        (Printf.sprintf "%s: %d arrivals ~ %.0f expected (rel %.3f)" name n
           expected rel)
        true (rel < tol))
    [
      ("poisson", Arrival.Poisson { rate_rps = 100_000.0 }, 200, 0.05);
      (* per-cycle burst counts are ~exponential (Poisson over an
         exponential sojourn), so convergence is slow: per-seed std is
         ~5% even at ~400 cycles *)
      ( "mmpp",
        Arrival.Mmpp
          { rate_on = 400_000.0; rate_off = 20_000.0; mean_on = Time.ms 2;
            mean_off = Time.ms 6 },
        3_200, 0.15 );
      ( "diurnal",
        Arrival.Diurnal
          { segments =
              [ (Time.ms 2, 200_000.0); (Time.ms 3, 50_000.0);
                (Time.ms 5, 10_000.0) ] },
        500, 0.10 );
    ]

let test_arrival_sampler_deterministic () =
  let arrival =
    Arrival.Mmpp
      { rate_on = 500_000.0; rate_off = 0.0; mean_on = Time.ms 1;
        mean_off = Time.ms 2 }
  in
  let times seed =
    let next = Arrival.sampler arrival (Rng.create ~seed) in
    let acc = ref [] and now = ref 0 in
    for _ = 1 to 500 do
      match next ~now:!now with
      | Some at ->
          acc := at :: !acc;
          now := at
      | None -> ()
    done;
    !acc
  in
  check bool "same seed, same stream" true (times 7 = times 7);
  check bool "different seed, different stream" true (times 7 <> times 8)

(* Known answers captured before the sampler's phase state moved from a
   per-call option tuple to a mutable record: the first arrivals of each
   process, and the last arrival and sum over 5000 (every phase path:
   redraws at a boundary, zero-rate phases, MMPP sojourn draws). *)
let test_arrival_known_answers () =
  let poisson = Arrival.Poisson { rate_rps = 1e6 } in
  let mmpp0 =
    Arrival.Mmpp { rate_on = 2e6; rate_off = 0.0; mean_on = 2000; mean_off = 3000 }
  in
  let diurnal = Arrival.Diurnal { segments = [ (5000, 1e6); (3000, 0.0); (4000, 3e6) ] } in
  let mmpp =
    Arrival.Mmpp
      { rate_on = 1.6e6; rate_off = 1e5; mean_on = Time.ms 2; mean_off = Time.ms 6 }
  in
  let arrivals ~seed ~n a =
    let next = Arrival.sampler a (Rng.create ~seed) in
    let now = ref 0 in
    List.init n (fun _ ->
        match next ~now:!now with
        | Some t ->
            now := t;
            t
        | None -> Alcotest.fail "the sampler returned None")
  in
  let ints = Alcotest.(list int) in
  check ints "poisson" [ 340; 1261; 2309; 4032; 4759; 6293; 6993; 8646 ]
    (arrivals ~seed:5 ~n:8 poisson);
  check ints "mmpp with an idle off phase"
    [ 460; 6617; 6967; 11152; 18384; 18711; 19347; 19550 ]
    (arrivals ~seed:5 ~n:8 mmpp0);
  check ints "diurnal" [ 340; 1261; 2309; 4032; 4759; 8233; 8784; 8934 ]
    (arrivals ~seed:5 ~n:8 diurnal);
  List.iter
    (fun (name, a, last, sum) ->
      let xs = arrivals ~seed:9 ~n:5000 a in
      check (pair int int) (name ^ ": last and sum of 5000") (last, sum)
        (List.nth xs 4999, List.fold_left ( + ) 0 xs))
    [
      ("poisson", poisson, 4933990, 12210896588);
      ("mmpp", mmpp, 29270345, 99759413431);
      ("mmpp with an idle off phase", mmpp0, 5962431, 14838135627);
      ("diurnal", diurnal, 3490931, 8593024746);
    ]

(* A Poisson sample allocates only its [Some] (2 words).  MMPP and
   Diurnal add a boxed mean gap per phase change, amortised over the
   phase's arrivals.  A [Shape.Mix] pick allocates nothing. *)
let test_arrival_sample_allocation () =
  let words_per_sample a =
    let next = Arrival.sampler a (Rng.create ~seed:3) in
    let now = ref 0 in
    let sample () =
      match next ~now:!now with Some t -> now := t | None -> ()
    in
    sample ();
    let n = 10_000 in
    let before = Gc.minor_words () in
    for _ = 1 to n do
      sample ()
    done;
    (Gc.minor_words () -. before) /. float_of_int n
  in
  List.iter
    (fun (name, a, max) ->
      let w = words_per_sample a in
      if w > max +. 0.01 then
        Alcotest.failf "%s: %.2f minor words per sample (max %.1f)" name w max)
    [
      ("Poisson", Arrival.Poisson { rate_rps = 1e6 }, 2.0);
      ( "MMPP",
        Arrival.Mmpp
          { rate_on = 1.6e6; rate_off = 1e5; mean_on = Time.ms 2; mean_off = Time.ms 6 },
        2.1 );
      ( "Diurnal",
        Arrival.Diurnal { segments = [ (Time.us 50, 1e6); (Time.us 30, 0.0); (Time.us 40, 3e6) ] },
        2.1 );
    ];
  (* a mix pick: the weight sums and the draw stay unboxed *)
  let rng = Rng.create ~seed:3 in
  let mix =
    Shape.Mix [ (0.9, Shape.Single (Dist.Constant 2)); (0.1, Shape.Single (Dist.Constant 1)) ]
  in
  let pick () = Shape.exec mix rng ~spawn:(fun _ _ -> ()) ignore in
  pick ();
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    pick ()
  done;
  let words = Gc.minor_words () -. before in
  if words >= 64.0 then Alcotest.failf "10k mix picks allocated %.0f minor words" words

let test_arrival_rotate () =
  let segs = [ (1, 10.0); (2, 20.0); (3, 30.0) ] in
  check bool "rotate 0 = id" true (Arrival.rotate 0 segs = segs);
  check bool "rotate 1" true
    (Arrival.rotate 1 segs = [ (2, 20.0); (3, 30.0); (1, 10.0) ]);
  check bool "rotate wraps" true (Arrival.rotate 4 segs = Arrival.rotate 1 segs);
  (* rotation preserves the long-run rate *)
  check (float 1e-9) "rotation preserves mean rate"
    (Arrival.mean_rate (Arrival.Diurnal { segments = segs }))
    (Arrival.mean_rate (Arrival.Diurnal { segments = Arrival.rotate 2 segs }))

(* ---- Shape ------------------------------------------------------------- *)

let test_shape_validate () =
  check bool "empty chain" true
    (invalid (fun () -> Shape.validate (Shape.Chain [])));
  check bool "zero fanout" true
    (invalid (fun () ->
         Shape.validate (Shape.Fanout { width = 0; stage = Dist.Constant 10 })));
  check bool "empty mix" true
    (invalid (fun () -> Shape.validate (Shape.Mix [])));
  check bool "non-positive mix weight" true
    (invalid (fun () ->
         Shape.validate
           (Shape.Mix [ (0.0, Shape.Single (Dist.Constant 10)) ])));
  check bool "invalid nested branch" true
    (invalid (fun () ->
         Shape.validate (Shape.Mix [ (1.0, Shape.Chain []) ])))

let test_shape_mean_service () =
  check (float 1e-9) "single" 100.0
    (Shape.mean_service (Shape.Single (Dist.Constant 100)));
  check (float 1e-9) "chain sums" 600.0
    (Shape.mean_service
       (Shape.Chain [ Dist.Constant 100; Dist.Constant 200; Dist.Constant 300 ]));
  check (float 1e-9) "fanout multiplies" 400.0
    (Shape.mean_service (Shape.Fanout { width = 4; stage = Dist.Constant 100 }));
  (* mix weights normalize: 0.5/2 each -> (100 + 400) / 2 *)
  check (float 1e-9) "mix weighted" 250.0
    (Shape.mean_service
       (Shape.Mix
          [
            (1.0, Shape.Single (Dist.Constant 100));
            (1.0, Shape.Fanout { width = 4; stage = Dist.Constant 100 });
          ]))

let test_shape_stages () =
  check int "single" 1 (Shape.stages (Shape.Single (Dist.Constant 1)));
  check int "chain" 3
    (Shape.stages (Shape.Chain [ Dist.Constant 1; Dist.Constant 1; Dist.Constant 1 ]));
  check int "fanout" 4
    (Shape.stages (Shape.Fanout { width = 4; stage = Dist.Constant 1 }));
  check int "mix takes the max" 4
    (Shape.stages
       (Shape.Mix
          [
            (1.0, Shape.Single (Dist.Constant 1));
            (1.0, Shape.Fanout { width = 4; stage = Dist.Constant 1 });
          ]))

(* ---- Scenario validation ----------------------------------------------- *)

let lc name = Scenario.lc ~name ~shape:(Shape.Single (Dist.Constant 1_000))
    ~arrival:(Arrival.Poisson { rate_rps = 1_000.0 })

let test_scenario_validate () =
  check bool "no LC tenant" true
    (invalid (fun () ->
         Scenario.validate
           (Scenario.make ~name:"x" ~cores:2 [ Scenario.be ~name:"b" () ])));
  check bool "two BE tenants" true
    (invalid (fun () ->
         Scenario.validate
           (Scenario.make ~name:"x" ~cores:2
              [ lc "a"; Scenario.be ~name:"b" (); Scenario.be ~name:"c" () ])));
  check bool "duplicate names" true
    (invalid (fun () ->
         Scenario.validate (Scenario.make ~name:"x" ~cores:2 [ lc "a"; lc "a" ])));
  check bool "guaranteed beyond cores" true
    (invalid (fun () ->
         Scenario.validate
           (Scenario.make ~name:"x" ~cores:2
              [ lc "a"; Scenario.be ~name:"b" ~guaranteed:3 () ])));
  check bool "burstable below guaranteed" true
    (invalid (fun () ->
         Scenario.validate
           (Scenario.make ~name:"x" ~cores:4
              [ lc "a"; Scenario.be ~name:"b" ~guaranteed:2 ~burstable:1 () ])));
  Scenario.validate
    (Scenario.make ~name:"ok" ~cores:4
       [ lc "a"; lc "b"; Scenario.be ~name:"c" ~guaranteed:1 ~burstable:3 () ])

let test_scenario_load_accounting () =
  let s =
    Scenario.make ~name:"x" ~cores:4
      [
        Scenario.lc ~name:"a" ~shape:(Shape.Single (Dist.Constant 2_000))
          ~arrival:(Arrival.Poisson { rate_rps = 100_000.0 });
        Scenario.lc ~name:"b"
          ~shape:(Shape.Fanout { width = 2; stage = Dist.Constant 1_000 })
          ~arrival:(Arrival.Poisson { rate_rps = 50_000.0 });
      ]
  in
  check (float 1e-9) "aggregate rate" 150_000.0 (Scenario.mean_rate_rps s);
  (* demand: 1e5*2us + 5e4*2us = 0.3 core-seconds/s over 4 cores *)
  check (float 1e-9) "offered load" 0.075 (Scenario.offered_load s)

(* ---- Compilation semantics --------------------------------------------- *)

let run_tiny ?(seed = 11) ?(requests = 300) ~cores ~shape ~runtime () =
  let s =
    Scenario.make ~name:"tiny" ~cores
      [
        Scenario.lc ~name:"t" ~shape
          ~arrival:(Arrival.Poisson { rate_rps = 2_000.0 });
      ]
  in
  Scenario.run ~seed ~requests ~runtime s

let test_chain_latency_floor () =
  (* at ~no load, a 2-stage chain's latency is at least the summed
     service; the shape compiler must thread stage 2 after stage 1 *)
  let d =
    run_tiny ~cores:4
      ~shape:(Shape.Chain [ Dist.Constant (Time.us 10); Dist.Constant (Time.us 20) ])
      ~runtime:Scenario.Percpu ()
  in
  check int "all completed" d.Scenario.submitted d.Scenario.completed;
  let h = Scenario.merged_latency d in
  check bool "chain latency >= total service" true
    (Histogram.min_value h >= Time.us 30)

let test_fanout_overlaps () =
  (* 4 x 10us in parallel on 8 idle cores: well under the 40us a serial
     chain would cost, but at least one stage's 10us *)
  let d =
    run_tiny ~cores:8
      ~shape:(Shape.Fanout { width = 4; stage = Dist.Constant (Time.us 10) })
      ~runtime:Scenario.Percpu ()
  in
  check int "all completed" d.Scenario.submitted d.Scenario.completed;
  let h = Scenario.merged_latency d in
  check bool "fanout waits for the slowest stage" true
    (Histogram.min_value h >= Time.us 10);
  check bool
    (Printf.sprintf "fanout overlaps (p50 %d ns < serialized 40us)"
       (Histogram.percentile h 50.0))
    true
    (Histogram.percentile h 50.0 < Time.us 40)

let test_submitted_close_to_target () =
  (* the stop rule may overshoot by at most one in-flight arrival per LC
     tenant *)
  let s =
    Scenario.make ~name:"multi" ~cores:4
      [
        lc "a"; lc "b"; lc "c";
        Scenario.be ~name:"d" ~guaranteed:1 ();
      ]
  in
  let d = Scenario.run ~seed:3 ~requests:500 ~runtime:Scenario.Centralized s in
  check bool "reached the target" true (d.Scenario.submitted >= 500);
  check bool "bounded overshoot" true (d.Scenario.submitted <= 500 + 3);
  check int "drained" d.Scenario.submitted d.Scenario.completed;
  check int "one digest per LC tenant" 3 (List.length d.Scenario.tenants);
  (* per-tenant counts sum to the cell totals *)
  check int "tenant submissions sum" d.Scenario.submitted
    (List.fold_left
       (fun acc (t : Scenario.tenant_digest) -> acc + t.submitted)
       0 d.Scenario.tenants)

let test_digest_deterministic () =
  List.iter
    (fun runtime ->
      let run seed =
        Scenario.digest_string
          (run_tiny ~seed ~cores:2 ~shape:(Shape.Single Dist.pareto_heavy)
             ~runtime ())
      in
      check string
        (Scenario.runtime_name runtime ^ ": same seed, same digest")
        (run 21) (run 21);
      check bool
        (Scenario.runtime_name runtime ^ ": different seed, different digest")
        true (run 21 <> run 22))
    Scenario.runtimes

let test_be_tenant_scheduled () =
  (* with a guaranteed core the BE tenant must actually run (grants
     recorded) without stopping LC completion *)
  let s =
    Scenario.make ~name:"colo" ~cores:4
      [
        Scenario.lc ~name:"lc" ~shape:(Shape.Single (Dist.Exponential { mean = Time.us 2 }))
          ~arrival:(Arrival.Poisson { rate_rps = 100_000.0 });
        Scenario.be ~name:"be" ~guaranteed:1 ~burstable:3 ();
      ]
  in
  let d = Scenario.run ~seed:9 ~requests:2_000 ~runtime:Scenario.Percpu s in
  check int "all LC completed" d.Scenario.submitted d.Scenario.completed;
  check bool "allocator granted cores to BE" true (d.Scenario.alloc_grants > 0)

(* ---- Bounded memory ---------------------------------------------------- *)

(* The scale contract: live heap is O(tenants + in-flight), independent of
   the request count.  Run the same cheap cell at 1M and 10M requests and
   compare major-heap live words after a full collection — growth beyond
   noise means per-request state is accumulating somewhere. *)
let test_bounded_memory () =
  let cell requests =
    let s =
      Scenario.make ~name:"mem" ~cores:2
        [
          Scenario.lc ~name:"t"
            ~shape:(Shape.Single (Dist.Exponential { mean = Time.us 1 }))
            ~arrival:(Arrival.Poisson { rate_rps = 1_000_000.0 });
        ]
    in
    let d = Scenario.run ~seed:13 ~requests ~runtime:Scenario.Percpu s in
    check int "all completed" d.Scenario.submitted d.Scenario.completed;
    check bool "hit the request target" true (d.Scenario.submitted >= requests);
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  let live_1m = cell 1_000_000 in
  let live_10m = cell 10_000_000 in
  let ratio = float_of_int live_10m /. float_of_int live_1m in
  check bool
    (Printf.sprintf "live words flat: 1M -> %d, 10M -> %d (ratio %.3f)" live_1m
       live_10m ratio)
    true (ratio < 1.1)

(* Fixed-cell allocation ceiling for the four benchmark workloads (a
   scale scenario on the runtime perfbench pairs it with): one 20k-request
   cell at seed 8.  A fixed cell's [Gc.minor_words] count is exact and
   repeatable, unlike a timed run's traced average, so each ceiling is the
   measured words/request plus 5%; an allocation regression on the request
   path fails here.  Measured under the default build (the release profile
   dune-workspace selects): under [--profile dev] every library is
   [-opaque], more values are boxed at call sites, and two cells exceed
   these ceilings. *)
let test_scale_cell_allocation_ceiling () =
  let module Scale = Skyloft_experiments.Scale in
  List.iter
    (fun (name, scenario, runtime, ceiling) ->
      let requests = 20_000 in
      let before = Gc.minor_words () in
      ignore (Scenario.run ~seed:8 ~requests ~runtime scenario);
      let per_request = (Gc.minor_words () -. before) /. float_of_int requests in
      if per_request > ceiling then
        Alcotest.failf "%s: %.2f minor words/request, above the ceiling of %.1f" name
          per_request ceiling)
    [
      ("pareto-percpu", Scale.steady_pareto, Scenario.Percpu, 95.0);
      ("pareto-hybrid", Scale.steady_pareto, Scenario.Hybrid, 98.2);
      ("mmpp-worksteal", Scale.bursty_mmpp, Scenario.Worksteal, 202.6);
      ("mix-percpu", Scale.tenant_mix, Scenario.Percpu, 107.8);
    ]

let suite =
  [
    test_case "arrival: validation" `Quick test_arrival_validate;
    test_case "arrival: exact mean rates" `Quick test_arrival_mean_rate;
    test_case "arrival: empirical rates" `Slow test_arrival_empirical_rates;
    test_case "arrival: sampler deterministic" `Quick
      test_arrival_sampler_deterministic;
    test_case "arrival: rotate" `Quick test_arrival_rotate;
    test_case "arrival: known answers" `Quick test_arrival_known_answers;
    test_case "arrival and mix pick: allocation per draw" `Quick test_arrival_sample_allocation;
    test_case "shape: validation" `Quick test_shape_validate;
    test_case "shape: exact mean service" `Quick test_shape_mean_service;
    test_case "shape: stages" `Quick test_shape_stages;
    test_case "scenario: validation" `Quick test_scenario_validate;
    test_case "scenario: load accounting" `Quick test_scenario_load_accounting;
    test_case "scenario: chain latency floor" `Quick test_chain_latency_floor;
    test_case "scenario: fanout overlaps" `Quick test_fanout_overlaps;
    test_case "scenario: submitted ~ target" `Quick test_submitted_close_to_target;
    test_case "scenario: digest deterministic" `Slow test_digest_deterministic;
    test_case "scenario: BE tenant scheduled" `Quick test_be_tenant_scheduled;
    test_case "scenario: scale cells stay under their allocation ceilings" `Quick
      test_scale_cell_allocation_ceiling;
    test_case "scenario: bounded memory at 10M requests" `Slow
      test_bounded_memory;
  ]
