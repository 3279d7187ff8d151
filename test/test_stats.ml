(* Tests for histograms and run summaries. *)

module Histogram = Skyloft_stats.Histogram
module Summary = Skyloft_stats.Summary

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let test_hist_empty () =
  let h = Histogram.create () in
  check Alcotest.bool "empty" true (Histogram.is_empty h);
  check Alcotest.int "count" 0 (Histogram.count h);
  check Alcotest.int "p99 of empty" 0 (Histogram.percentile h 99.0);
  check Alcotest.int "min" 0 (Histogram.min_value h);
  check Alcotest.int "max" 0 (Histogram.max_value h)

let test_hist_exact_small_values () =
  (* values below 64 (the sub-bucket count) are recorded exactly *)
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  check Alcotest.int "p50" 5 (Histogram.percentile h 50.0);
  check Alcotest.int "p100" 10 (Histogram.percentile h 100.0);
  check Alcotest.int "p10" 1 (Histogram.percentile h 10.0);
  check Alcotest.int "min" 1 (Histogram.min_value h);
  check Alcotest.int "max" 10 (Histogram.max_value h)

let test_hist_minmax_exact () =
  let h = Histogram.create () in
  Histogram.record h 123_456_789;
  Histogram.record h 42;
  check Alcotest.int "min exact" 42 (Histogram.min_value h);
  check Alcotest.int "max exact" 123_456_789 (Histogram.max_value h)

let test_hist_record_n () =
  let h = Histogram.create () in
  Histogram.record_n h 100 ~n:1000;
  Histogram.record_n h 10_000 ~n:10;
  check Alcotest.int "count" 1010 (Histogram.count h);
  check Alcotest.bool "p50 near 100" true (abs (Histogram.percentile h 50.0 - 100) <= 2)

let test_hist_percentile_monotone () =
  let h = Histogram.create () in
  for i = 1 to 10_000 do
    Histogram.record h i
  done;
  let last = ref 0 in
  List.iter
    (fun p ->
      let v = Histogram.percentile h p in
      check Alcotest.bool (Printf.sprintf "p%.1f monotone" p) true (v >= !last);
      last := v)
    [ 1.0; 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 99.9; 100.0 ]

let prop_hist_relative_error =
  QCheck.Test.make ~name:"histogram percentile relative error < 2/sub_buckets"
    ~count:200
    QCheck.(int_range 1 1_000_000_000)
    (fun v ->
      let h = Histogram.create () in
      Histogram.record h v;
      let p = Histogram.percentile h 100.0 in
      (* single value: percentile = max_value = exact *)
      p = v)

let prop_hist_bucket_error =
  QCheck.Test.make ~name:"histogram p50 error bounded" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 100) (int_range 1 10_000_000))
    (fun values ->
      let h = Histogram.create () in
      List.iter (Histogram.record h) values;
      let sorted = List.sort compare values in
      let exact = List.nth sorted ((List.length values - 1) / 2) in
      let approx = Histogram.percentile h 50.0 in
      (* log-linear buckets with 64 sub-buckets: <= ~3.2% error *)
      float_of_int (abs (approx - exact)) <= (0.032 *. float_of_int exact) +. 1.0)

let test_hist_mean () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 10; 20; 30 ];
  check Alcotest.bool "mean ~20" true (abs_float (Histogram.mean h -. 20.0) < 0.5)

let test_hist_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.record a 5;
  Histogram.record b 500_000;
  Histogram.merge_into ~src:b ~dst:a;
  check Alcotest.int "merged count" 2 (Histogram.count a);
  check Alcotest.int "merged min" 5 (Histogram.min_value a);
  check Alcotest.int "merged max" 500_000 (Histogram.max_value a)

let test_hist_negative_raises () =
  let h = Histogram.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Histogram.record: negative value")
    (fun () -> Histogram.record h (-1))

(* The dense layout every histogram had before groups were allocated on
   first touch: one flat array of [(63 - k + 2) * sub] counts.  The
   reference the sparse [Histogram] must agree with, query for query. *)
module Dense_hist = struct
  type t = {
    sub : int;
    k : int;
    counts : int array;
    mutable n : int;
    mutable min_v : int;
    mutable max_v : int;
  }

  let create sub =
    let k =
      let rec go k = if 1 lsl k = sub then k else go (k + 1) in
      go 0
    in
    { sub; k; counts = Array.make ((63 - k + 2) * sub) 0; n = 0; min_v = max_int; max_v = 0 }

  let msb v =
    let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
    go v 0

  let index t v =
    if v < t.sub then v
    else begin
      let group = msb v - t.k + 1 in
      (group * t.sub) + (v lsr (group - 1)) - t.sub
    end

  let bucket_upper t i =
    if i < t.sub then i
    else begin
      let group = i / t.sub and s = i mod t.sub in
      ((t.sub + s + 1) lsl (group - 1)) - 1
    end

  let bucket_mid t i =
    if i < t.sub then float_of_int i
    else begin
      let group = i / t.sub and s = i mod t.sub in
      let lower = (t.sub + s) lsl (group - 1) in
      float_of_int (lower + bucket_upper t i) /. 2.0
    end

  let record_n t v ~n =
    if n > 0 then begin
      t.counts.(index t v) <- t.counts.(index t v) + n;
      t.n <- t.n + n;
      if v < t.min_v then t.min_v <- v;
      if v > t.max_v then t.max_v <- v
    end

  let min_value t = if t.n = 0 then 0 else t.min_v

  let mean t =
    if t.n = 0 then 0.0
    else begin
      let acc = ref 0.0 in
      Array.iteri
        (fun i c -> if c > 0 then acc := !acc +. (float_of_int c *. bucket_mid t i))
        t.counts;
      !acc /. float_of_int t.n
    end

  let percentile t p =
    if t.n = 0 then 0
    else begin
      let target = max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int t.n))) in
      let rec scan i seen =
        if i = Array.length t.counts then t.max_v
        else begin
          let seen = seen + t.counts.(i) in
          if seen >= target then min (bucket_upper t i) t.max_v else scan (i + 1) seen
        end
      in
      scan 0 0
    end

  let merge_into ~src ~dst =
    Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
    dst.n <- dst.n + src.n;
    if src.n > 0 then begin
      if src.min_v < dst.min_v then dst.min_v <- src.min_v;
      if src.max_v > dst.max_v then dst.max_v <- src.max_v
    end
end

type hist_op =
  | Record of int * int  (* histogram, value *)
  | Record_n of int * int * int  (* histogram, value, n *)
  | Merge of int * int  (* src, dst *)
  | Merge_fresh of int  (* replace a histogram by an empty one merged from it *)

let show_hist_op = function
  | Record (h, v) -> Printf.sprintf "record %d %d" h v
  | Record_n (h, v, n) -> Printf.sprintf "record_n %d %d ~n:%d" h v n
  | Merge (s, d) -> Printf.sprintf "merge %d -> %d" s d
  | Merge_fresh h -> Printf.sprintf "merge %d -> fresh" h

(* Values up to 2^50, drawn log-uniformly so small and huge magnitudes
   both occur while most power-of-two groups stay absent. *)
let gen_hist_op =
  let open QCheck.Gen in
  let value = int_range 0 50 >>= fun e -> int_range 0 ((1 lsl e) - 1) in
  let h = int_range 0 2 in
  frequency
    [
      (6, map2 (fun h v -> Record (h, v)) h value);
      (2, map3 (fun h v n -> Record_n (h, v, n)) h value (int_range 0 1_000));
      (2, map2 (fun s d -> Merge (s, d)) h h);
      (1, map (fun h -> Merge_fresh h) h);
    ]

(* Three sparse histograms and their dense twins under one random op
   sequence: after every op each pair answers every query identically,
   [mean] to the bit. *)
let prop_hist_dense_oracle =
  QCheck.Test.make ~name:"histogram: matches the dense-array reference" ~count:300
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map show_hist_op ops))
        Gen.(list_size (int_range 1 80) gen_hist_op))
    (fun ops ->
      let sparse = Array.init 3 (fun _ -> Histogram.create ()) in
      let dense = Array.init 3 (fun _ -> Dense_hist.create 64) in
      let agree i =
        let h = sparse.(i) and d = dense.(i) in
        Histogram.count h = d.n
        && Histogram.min_value h = Dense_hist.min_value d
        && Histogram.max_value h = d.max_v
        && Histogram.mean h = Dense_hist.mean d
        && List.for_all
             (fun p -> Histogram.percentile h p = Dense_hist.percentile d p)
             [ 0.0; 50.0; 90.0; 99.0; 99.9; 100.0 ]
      in
      List.for_all
        (fun op ->
          (match op with
          | Record (i, v) ->
              Histogram.record sparse.(i) v;
              Dense_hist.record_n dense.(i) v ~n:1
          | Record_n (i, v, n) ->
              Histogram.record_n sparse.(i) v ~n;
              Dense_hist.record_n dense.(i) v ~n
          | Merge (s, d) ->
              Histogram.merge_into ~src:sparse.(s) ~dst:sparse.(d);
              Dense_hist.merge_into ~src:dense.(s) ~dst:dense.(d)
          | Merge_fresh i ->
              let h = Histogram.create () and d = Dense_hist.create 64 in
              Histogram.merge_into ~src:sparse.(i) ~dst:h;
              Dense_hist.merge_into ~src:dense.(i) ~dst:d;
              sparse.(i) <- h;
              dense.(i) <- d);
          agree 0 && agree 1 && agree 2)
        ops)

(* Words [f] allocates, minor and major heap (arrays above 256 words go
   straight to the major heap).  [Gc.counters]' major count includes the
   words a minor collection promotes, which [Gc.minor_words] already saw.
   [Gc.counters] boxes its result, so the minor-word reads sit inside the
   two [Gc.counters] calls and the count is exact. *)
let words_allocated f =
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  let r = f () in
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  ignore (Sys.opaque_identity r);
  minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)

(* An empty container costs its header, not its capacity: a histogram
   is its record alone (four fields and a header) until a value arrives,
   as it shares one read-only group table until then, and a timeseries
   ring starts small and grows. *)
let test_empty_containers_are_small () =
  let budget = 300.0 in
  let hist = words_allocated (fun () -> Histogram.create ()) in
  let series = words_allocated (fun () -> Skyloft_stats.Timeseries.create ()) in
  check Alcotest.bool (Printf.sprintf "Histogram.create: %.0f words" hist) true (hist <= 5.0);
  check Alcotest.bool
    (Printf.sprintf "Timeseries.create: %.0f words" series)
    true (series < budget)

(* ---- Summary ---- *)

let test_summary_latency_and_slowdown () =
  let s = Summary.create () in
  (* request: arrived 0, completed 100, service 50 -> latency 100, slowdown 2.0 *)
  Summary.record_request s ~arrival:0 ~completion:100 ~service:50;
  check Alcotest.int "requests" 1 (Summary.requests s);
  check Alcotest.int "latency p100" 100 (Summary.latency_p s 100.0);
  check (Alcotest.float 0.05) "slowdown" 2.0 (Summary.slowdown_p s 100.0)

let test_summary_slowdown_floor () =
  let s = Summary.create () in
  (* completion = arrival: slowdown must still be >= 1 *)
  Summary.record_request s ~arrival:0 ~completion:0 ~service:50;
  check Alcotest.bool "slowdown >= 1" true (Summary.slowdown_p s 100.0 >= 1.0)

let test_summary_invalid () =
  let s = Summary.create () in
  check Alcotest.bool "completion < arrival raises" true
    (try
       Summary.record_request s ~arrival:10 ~completion:5 ~service:1;
       false
     with Invalid_argument _ -> true);
  check Alcotest.bool "negative service raises" true
    (try
       Summary.record_request s ~arrival:0 ~completion:5 ~service:(-1);
       false
     with Invalid_argument _ -> true);
  (* zero service is legal: the request still has a latency, it just
     contributes no slowdown sample (slowdown would divide by zero) *)
  Summary.record_request s ~arrival:0 ~completion:5 ~service:0;
  check Alcotest.int "zero-service request counted" 1 (Summary.requests s)

let test_timeseries_empty_mean () =
  let module Timeseries = Skyloft_stats.Timeseries in
  let s = Timeseries.create () in
  check (Alcotest.float 1e-9) "empty mean is 0" 0.0 (Timeseries.mean s ~until:1_000);
  check (Alcotest.float 1e-9) "empty integral is 0" 0.0
    (Timeseries.integrate s ~until:1_000)

let test_timeseries_integrate () =
  let module Timeseries = Skyloft_stats.Timeseries in
  let s = Timeseries.create () in
  Timeseries.record s ~at:0 2;
  Timeseries.record s ~at:100 6;
  (* 2 for 100 ns, then 6 for 100 ns *)
  check (Alcotest.float 1e-6) "integral is the step area" 800.0
    (Timeseries.integrate s ~until:200);
  check (Alcotest.float 1e-6) "mean is integral over window" 4.0
    (Timeseries.mean s ~until:200);
  (* a window ending before the last sample still integrates the prefix *)
  check (Alcotest.float 1e-6) "prefix integral" 200.0
    (Timeseries.integrate s ~until:100)

let test_timeseries_truncation_exact () =
  (* A wrapped series must agree with an unbounded reference: eviction
     folds each dropped sample's holding interval into the truncation
     accumulators, so integrate/mean stay exact over the full history. *)
  let module Timeseries = Skyloft_stats.Timeseries in
  let small = Timeseries.create ~capacity:4 () in
  let big = Timeseries.create ~capacity:10_000 () in
  (* distinct values so collapsing never kicks in; irregular spacing *)
  for i = 0 to 499 do
    let at = i * 7 and v = (i * 13 mod 97) + i in
    Timeseries.record small ~at v;
    Timeseries.record big ~at v
  done;
  let until = 500 * 7 in
  check Alcotest.int "reference dropped nothing" 0 (Timeseries.dropped big);
  check Alcotest.bool "wrapped series dropped samples" true
    (Timeseries.dropped small > 0);
  check Alcotest.int "window holds capacity samples" 4 (Timeseries.length small);
  check (Alcotest.float 1e-6) "integral exact across eviction"
    (Timeseries.integrate big ~until)
    (Timeseries.integrate small ~until);
  check (Alcotest.float 1e-9) "mean exact across eviction"
    (Timeseries.mean big ~until)
    (Timeseries.mean small ~until)

let test_timeseries_truncated_span () =
  let module Timeseries = Skyloft_stats.Timeseries in
  let s = Timeseries.create ~capacity:2 () in
  Timeseries.record s ~at:0 1;
  Timeseries.record s ~at:100 2;
  check Alcotest.int "no truncation before wrap" 0 (Timeseries.truncated_span s);
  Timeseries.record s ~at:250 3;
  (* the at:0 sample (held 0..100) scrolled out *)
  check Alcotest.int "span of the evicted holding interval" 100
    (Timeseries.truncated_span s);
  check Alcotest.int "one sample dropped" 1 (Timeseries.dropped s);
  Timeseries.record s ~at:400 4;
  (* now at:100 (held 100..250) is gone too *)
  check Alcotest.int "span accumulates" 250 (Timeseries.truncated_span s);
  (* window-only views see just the retained ring *)
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "window holds the two newest" [ (250, 3); (400, 4) ]
    (Timeseries.to_list s);
  (* full-history accounting: 1*100 + 2*150 + 3*150 + 4*100 = 1250 *)
  check (Alcotest.float 1e-6) "integral covers evicted prefix" 1250.0
    (Timeseries.integrate s ~until:500);
  check (Alcotest.float 1e-9) "mean over full span" (1250.0 /. 500.0)
    (Timeseries.mean s ~until:500)

let test_timeseries_capacity_one () =
  let module Timeseries = Skyloft_stats.Timeseries in
  let s = Timeseries.create ~capacity:1 () in
  Timeseries.record s ~at:0 5;
  Timeseries.record s ~at:10 7;
  Timeseries.record s ~at:30 9;
  (* evicted intervals close at the incoming sample: 5*10 + 7*20 *)
  check Alcotest.int "span at capacity 1" 30 (Timeseries.truncated_span s);
  check (Alcotest.float 1e-6) "integral at capacity 1"
    (50.0 +. 140.0 +. (9.0 *. 10.0))
    (Timeseries.integrate s ~until:40)

(* A full ring evicts on every recorded change; the eviction folds into
   the truncation accumulators in place, so it allocates nothing. *)
let test_timeseries_full_ring_no_alloc () =
  let module Timeseries = Skyloft_stats.Timeseries in
  let s = Timeseries.create ~capacity:8 () in
  for i = 0 to 7 do
    Timeseries.record s ~at:i i
  done;
  let before = Gc.minor_words () in
  for i = 8 to 1_007 do
    Timeseries.record s ~at:(i * 3) (i land 15)
  done;
  let words = Gc.minor_words () -. before in
  check Alcotest.int "samples evicted" 1_000 (Timeseries.dropped s);
  check (Alcotest.float 0.0) "minor words of 1,000 evicting records" 0.0 words

(* [record] against a list model: a sample earlier than the newest one
   raises and changes nothing, a repeated value is dropped, the ring keeps
   the newest [capacity] samples, and [integrate]/[mean] cover the whole
   history, evicted samples included.  Times and values are small ints, so
   every float sum is exact and compared with [=]. *)
let timeseries_matches_model (capacity, steps) =
  let module Timeseries = Skyloft_stats.Timeseries in
  let s = Timeseries.create ~capacity () in
  let model = ref [] (* newest first *) and at = ref 0 in
  (* The model's step integral up to its newest sample. *)
  let closed = ref 0 in
  List.for_all
    (fun (dt, v) ->
      at := !at + dt;
      let backwards = match !model with (t, _) :: _ -> !at < t | [] -> false in
      let raised =
        match Timeseries.record s ~at:!at v with
        | () -> false
        | exception Invalid_argument _ -> true
      in
      if backwards then at := !at - dt
      else begin
        match !model with
        | (_, pv) :: _ when pv = v -> ()
        | (pt, pv) :: _ ->
            closed := !closed + (pv * (!at - pt));
            model := (!at, v) :: !model
        | [] -> model := (!at, v) :: !model
      end;
      let kept = List.filteri (fun i _ -> i < capacity) !model in
      let until = !at + 3 in
      let integral, mean =
        match (!model, List.rev !model) with
        | (t_last, v_last) :: _, (t_first, _) :: _ ->
            let integral = !closed + (v_last * (until - t_last)) in
            (float_of_int integral, float_of_int integral /. float_of_int (until - t_first))
        | _ -> (0.0, 0.0)
      in
      raised = backwards
      && Timeseries.to_list s = List.rev kept
      && Timeseries.dropped s = List.length !model - List.length kept
      && Timeseries.last s = List.nth_opt !model 0
      && Timeseries.integrate s ~until = integral
      && Timeseries.mean s ~until = mean)
    steps

let prop_timeseries_record_model =
  QCheck.Test.make ~name:"timeseries: record matches a list model" ~count:200
    QCheck.(
      pair (int_range 1 5)
        (list_of_size (Gen.int_range 0 60) (pair (int_range (-3) 5) (int_range 0 3))))
    timeseries_matches_model

(* Capacities on both sides of the initial 64-slot ring and long enough
   runs to grow it, fill it and then wrap it. *)
let prop_timeseries_growth_model =
  QCheck.Test.make ~name:"timeseries: ring growth matches a list model" ~count:60
    QCheck.(
      pair
        (make ~print:string_of_int Gen.(oneof [ oneofl [ 63; 64; 65 ]; int_range 100 300 ]))
        (list_of_size (Gen.int_range 0 700) (pair (int_range (-1) 5) (int_range 0 3))))
    timeseries_matches_model

(* The ring's index wrap at fixed capacities, powers of two and not (3
   and 5), each run at least four times round the ring: every step
   changes the value (an increment of 1-3 modulo 4), so every step
   records a sample and the ring wraps once per [capacity] steps. *)
let prop_timeseries_wrap_model =
  QCheck.Test.make ~name:"timeseries: wrapped rings match a list model" ~count:120
    QCheck.(
      make
        ~print:(fun (c, steps) -> Printf.sprintf "capacity %d, %d steps" c (List.length steps))
        Gen.(
          oneofl [ 1; 3; 5; 64 ] >>= fun capacity ->
          list_size
            (int_range ((4 * capacity) + 1) ((6 * capacity) + 10))
            (pair (int_range 0 5) (int_range 1 3))
          >|= fun steps -> (capacity, steps)))
    (fun (capacity, steps) ->
      let v = ref 0 in
      let steps = List.map (fun (dt, inc) -> v := (!v + inc) mod 4; (dt, !v)) steps in
      List.length steps > 4 * capacity && timeseries_matches_model (capacity, steps))

let suite =
  [
    Alcotest.test_case "timeseries: empty mean" `Quick test_timeseries_empty_mean;
    Alcotest.test_case "timeseries: integrate" `Quick test_timeseries_integrate;
    Alcotest.test_case "timeseries: truncation exact" `Quick test_timeseries_truncation_exact;
    Alcotest.test_case "timeseries: truncated span" `Quick test_timeseries_truncated_span;
    Alcotest.test_case "timeseries: capacity one" `Quick test_timeseries_capacity_one;
    Alcotest.test_case "timeseries: full ring allocates nothing" `Quick
      test_timeseries_full_ring_no_alloc;
    qtest prop_timeseries_record_model;
    qtest prop_timeseries_growth_model;
    qtest prop_timeseries_wrap_model;
    Alcotest.test_case "hist: empty" `Quick test_hist_empty;
    Alcotest.test_case "hist: exact small" `Quick test_hist_exact_small_values;
    Alcotest.test_case "hist: min/max exact" `Quick test_hist_minmax_exact;
    Alcotest.test_case "hist: record_n" `Quick test_hist_record_n;
    Alcotest.test_case "hist: monotone percentiles" `Quick test_hist_percentile_monotone;
    qtest prop_hist_relative_error;
    qtest prop_hist_bucket_error;
    Alcotest.test_case "hist: mean" `Quick test_hist_mean;
    Alcotest.test_case "hist: merge" `Quick test_hist_merge;
    Alcotest.test_case "hist: negative raises" `Quick test_hist_negative_raises;
    qtest prop_hist_dense_oracle;
    Alcotest.test_case "empty containers are small" `Quick test_empty_containers_are_small;
    Alcotest.test_case "summary: latency+slowdown" `Quick test_summary_latency_and_slowdown;
    Alcotest.test_case "summary: slowdown floor" `Quick test_summary_slowdown_floor;
    Alcotest.test_case "summary: invalid input" `Quick test_summary_invalid;
  ]
