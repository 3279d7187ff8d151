(* Tests for the simulation substrate: Time, Rng, Dist, Eventq, Engine,
   Coro. *)

module Time = Skyloft_sim.Time
module Rng = Skyloft_sim.Rng
module Dist = Skyloft_sim.Dist
module Eventq = Skyloft_sim.Eventq
module Engine = Skyloft_sim.Engine
module Coro = Skyloft_sim.Coro

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ---- Time ---- *)

let test_time_units () =
  check Alcotest.int "us" 1_000 (Time.us 1);
  check Alcotest.int "ms" 1_000_000 (Time.ms 1);
  check Alcotest.int "s" 1_000_000_000 (Time.s 1);
  check Alcotest.int "ns identity" 42 (Time.ns 42)

let test_time_cycles () =
  (* 2 GHz: 1000 cycles = 500 ns *)
  check Alcotest.int "of_cycles" 500 (Time.of_cycles 1000);
  check Alcotest.int "odd counts round to nearest" 618 (Time.of_cycles 1235)

let test_time_float () =
  check Alcotest.int "of_us_float" 12_500 (Time.of_us_float 12.5);
  check (Alcotest.float 1e-9) "to_us_float" 12.5 (Time.to_us_float 12_500);
  check (Alcotest.float 1e-9) "to_s_float" 1.5 (Time.to_s_float 1_500_000_000)

let test_time_pp () =
  let s t = Format.asprintf "%a" Time.pp t in
  check Alcotest.string "ns" "999ns" (s 999);
  check Alcotest.string "us" "1.50us" (s 1_500);
  check Alcotest.string "ms" "2.00ms" (s (Time.ms 2));
  check Alcotest.string "s" "3.00s" (s (Time.s 3))

(* ---- Rng ---- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_matters () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  check Alcotest.bool "different seeds diverge" true !differs

let test_rng_copy () =
  let a = Rng.create ~seed:3 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  for _ = 1 to 50 do
    check Alcotest.int64 "copy same future" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create ~seed:3 in
  let child = Rng.split a in
  (* children and parents should not produce identical streams *)
  let same = ref 0 in
  for _ = 1 to 20 do
    if Rng.bits64 a = Rng.bits64 child then incr same
  done;
  check Alcotest.bool "split decorrelates" true (!same < 3)

let prop_int_in_range =
  QCheck.Test.make ~name:"Rng.int stays in range" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_uniform_in_unit =
  QCheck.Test.make ~name:"Rng.uniform in [0,1)" ~count:500 QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed in
      let v = Rng.uniform rng in
      v >= 0.0 && v < 1.0)

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:11 in
  let n = 100_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Rng.exponential_ns rng ~mean:100_000.0
  done;
  let mean = float_of_int !sum /. float_of_int n in
  check Alcotest.bool "empirical mean within 2%" true (abs_float (mean -. 100_000.0) < 2_000.0)

let test_rng_int_bad_bound () =
  let rng = Rng.create ~seed:0 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

(* Known answers: the first outputs of fixed seeds, and a few draws of
   every derived function.  Every golden digest rests on this stream, so
   a change to it fails here by name, not only as a digest mismatch. *)
let test_rng_known_answers () =
  let first8 seed =
    let r = Rng.create ~seed in
    List.init 8 (fun _ -> Rng.bits64 r)
  in
  let int64s = Alcotest.(list int64) in
  check int64s "seed 0"
    [ 0x99ec5f36cb75f2b4L; 0xbf6e1f784956452aL; 0x1a5f849d4933e6e0L; 0x6aa594f1262d2d2cL;
      0xbba5ad4a1f842e59L; 0xffef8375d9ebcacaL; 0x6c160deed2f54c98L; 0x8920ad648fc30a3fL ]
    (first8 0);
  check int64s "seed 1"
    [ 0xb3f2af6d0fc710c5L; 0x853b559647364ceaL; 0x92f89756082a4514L; 0x642e1c7bc266a3a7L;
      0xb27a48e29a233673L; 0x24c123126ffda722L; 0x123004ef8df510e6L; 0x61954dcc47b1e89dL ]
    (first8 1);
  check int64s "seed 42"
    [ 0x15780b2e0c2ec716L; 0x6104d9866d113a7eL; 0xae17533239e499a1L; 0xecb8ad4703b360a1L;
      0xfde6dc7fe2ec5e64L; 0xc50da53101795238L; 0xb82154855a65ddb2L; 0xd99a2743ebe60087L ]
    (first8 42);
  let r = Rng.create ~seed:7 in
  check Alcotest.(list int) "int"
    [ 7; 337; 319819; 4; 507865858444; 3438232722690065957 ]
    (List.map (Rng.int r) [ 10; 1000; 1_000_000; 7; 1 lsl 40; max_int ]);
  let exact = Alcotest.float 0.0 in
  let r = Rng.create ~seed:7 in
  List.iter
    (fun want -> check exact "uniform" want (Rng.uniform r))
    [ 0x1.66b1f5ee9df2ep-1; 0x1.1d70f6593d20ap-2; 0x1.ade3a6932a58fp-1; 0x1.f65270e63d00ep-1 ];
  let r = Rng.create ~seed:7 in
  check Alcotest.(list int) "exponential_ns"
    [ 1205896260247; 326771165804; 1830255806913; 3968472994580 ]
    (List.init 4 (fun _ -> Rng.exponential_ns r ~mean:1e12));
  let parent = Rng.create ~seed:42 in
  let child = Rng.split parent in
  let c1 = Rng.bits64 child in
  let c2 = Rng.bits64 child in
  check int64s "split: the child's stream" [ 0x8ee445d14631c453L; 0x106fa1a13296fe62L ] [ c1; c2 ];
  check Alcotest.int64 "split: the parent advanced one draw" 0x6104d9866d113a7eL
    (Rng.bits64 parent);
  let orig = Rng.create ~seed:1 in
  ignore (Rng.bits64 orig);
  let dup = Rng.copy orig in
  let d1 = Rng.bits64 dup in
  let d2 = Rng.bits64 dup in
  check int64s "copy: the original's future" [ 0x853b559647364ceaL; 0x92f89756082a4514L ]
    [ d1; d2 ];
  check Alcotest.int64 "copy: the original is untouched" 0x853b559647364ceaL
    (Rng.bits64 orig);
  let r = Rng.create ~seed:3 in
  check Alcotest.(list int) "Dist.sample of every kind"
    [ 5; 5; 5; 1173; 1023; 246; 4; 4; 4; 1199; 2630; 8971 ]
    (List.concat_map
       (fun d -> List.init 3 (fun _ -> Dist.sample d r))
       Dist.
         [
           Constant 5;
           Exponential { mean = 1000 };
           Bimodal { p_short = 0.9; short = 4; long = 10000 };
           Pareto { scale = 1000; alpha = 1.3; cap = 5_000_000 };
         ])

(* Minor words per call of [f], over [calls] calls after a warm-up. *)
let words_per_call ?(calls = 10_000) f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

(* The draw path allocates nothing: [Rng]'s state is unboxed and the
   [int]-returning draws never box a 64-bit word.  [bits64] returns a
   boxed [int64] (3 words) by its type.  The 0.01 tolerance covers the
   boxed floats [Gc.minor_words] itself may return. *)
let test_rng_draws_allocate_nothing () =
  let r = Rng.create ~seed:5 in
  let pin name ~max f =
    let w = words_per_call f in
    if w > max +. 0.01 then Alcotest.failf "%s: %.2f minor words per call (max %.0f)" name w max
  in
  pin "Rng.int" ~max:0.0 (fun () -> ignore (Rng.int r 1_000_000));
  pin "Rng.bits53" ~max:0.0 (fun () -> ignore (Rng.bits53 r));
  pin "Rng.exponential_ns" ~max:0.0 (fun () -> ignore (Rng.exponential_ns r ~mean:1000.0));
  pin "Rng.bits64" ~max:3.0 (fun () -> ignore (Rng.bits64 r));
  List.iter
    (fun (name, d) -> pin ("Dist.sample " ^ name) ~max:0.0 (fun () -> ignore (Dist.sample d r)))
    Dist.
      [
        ("Constant", Constant 5);
        ("Exponential", Exponential { mean = 1000 });
        ("Bimodal", Bimodal { p_short = 0.9; short = 4; long = 10000 });
        ("Pareto", pareto_heavy);
      ]

(* ---- Dist ---- *)

let test_dist_constant () =
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 10 do
    check Alcotest.int "constant" 500 (Dist.sample (Dist.Constant 500) rng)
  done

let test_dist_bimodal_fractions () =
  let rng = Rng.create ~seed:5 in
  let d = Dist.Bimodal { p_short = 0.9; short = 10; long = 1_000 } in
  let shorts = ref 0 and n = 50_000 in
  for _ = 1 to n do
    if Dist.sample d rng = 10 then incr shorts
  done;
  let frac = float_of_int !shorts /. float_of_int n in
  check Alcotest.bool "~90% short" true (abs_float (frac -. 0.9) < 0.01)

let test_dist_means () =
  check (Alcotest.float 1e-6) "constant mean" 500.0 (Dist.mean (Dist.Constant 500));
  check (Alcotest.float 1e-6) "bimodal mean" 109.0
    (Dist.mean (Dist.Bimodal { p_short = 0.9; short = 10; long = 1_000 }))

let test_dist_paper_workloads () =
  (* dispersive: 99.5% x 4us + 0.5% x 10ms = 53.98 us *)
  let m = Dist.mean Dist.dispersive /. 1_000.0 in
  check Alcotest.bool "dispersive mean ~54us" true (abs_float (m -. 53.98) < 0.1)

let prop_sample_positive =
  QCheck.Test.make ~name:"Dist.sample always >= 1" ~count:300
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, mean) ->
      let rng = Rng.create ~seed in
      let d = Dist.Exponential { mean } in
      Dist.sample d rng >= 1)

let test_dist_empirical_exponential () =
  let rng = Rng.create ~seed:21 in
  let d = Dist.Exponential { mean = 10_000 } in
  let n = 50_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Dist.sample d rng
  done;
  let mean = float_of_int !sum /. float_of_int n in
  check Alcotest.bool "exp empirical mean" true (abs_float (mean -. 10_000.) < 200.)

let test_dist_pareto_exact_mean () =
  (* alpha = 2, s = 1000, c = 100_000:
     2*1000*(1 - 1/100) + 100_000*(1/100)^2 = 1980 + 10 = 1990 *)
  check (Alcotest.float 1e-6) "alpha=2 mean" 1990.0
    (Dist.mean (Dist.Pareto { scale = 1_000; alpha = 2.0; cap = 100_000 }));
  (* the alpha = 1 limit: s * (1 + ln (c/s)) *)
  check (Alcotest.float 1e-6) "alpha=1 mean"
    (1_000.0 *. (1.0 +. log 100.0))
    (Dist.mean (Dist.Pareto { scale = 1_000; alpha = 1.0; cap = 100_000 }));
  (* cap = scale degenerates to a constant *)
  check (Alcotest.float 1e-6) "cap=scale mean" 1_000.0
    (Dist.mean (Dist.Pareto { scale = 1_000; alpha = 1.3; cap = 1_000 }))

let test_dist_pareto_bounded () =
  let rng = Rng.create ~seed:9 in
  let d = Dist.Pareto { scale = 1_000; alpha = 1.3; cap = 50_000 } in
  for _ = 1 to 20_000 do
    let x = Dist.sample d rng in
    check Alcotest.bool "within [scale, cap]" true (x >= 1_000 && x <= 50_000)
  done

let test_dist_pareto_invalid () =
  let rng = Rng.create ~seed:0 in
  Alcotest.check_raises "cap < scale"
    (Invalid_argument "Dist.sample: Pareto needs 1 <= scale <= cap and alpha > 0")
    (fun () ->
      ignore (Dist.sample (Dist.Pareto { scale = 100; alpha = 1.3; cap = 50 }) rng));
  Alcotest.check_raises "alpha <= 0"
    (Invalid_argument "Dist.sample: Pareto needs 1 <= scale <= cap and alpha > 0")
    (fun () ->
      ignore (Dist.sample (Dist.Pareto { scale = 100; alpha = 0.0; cap = 500 }) rng))

let test_dist_pareto_empirical_mean () =
  (* The convergence check the scale cells lean on: the capped tail makes
     the empirical mean converge to the exact Dist.mean. *)
  let rng = Rng.create ~seed:33 in
  let d = Dist.pareto_heavy in
  let expected = Dist.mean d in
  let n = 400_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. float_of_int (Dist.sample d rng)
  done;
  let empirical = !sum /. float_of_int n in
  check Alcotest.bool
    (Printf.sprintf "pareto empirical %.1f ~ exact %.1f" empirical expected)
    true
    (abs_float (empirical -. expected) /. expected < 0.05)

let prop_pareto_empirical_mean =
  (* Across random (scale, cap ratio, alpha): sampling converges to the
     closed form.  scale >= 500 keeps integer truncation (< 1 ns per
     draw) far below the 8% tolerance; the cap bounds the variance so
     30k draws suffice even at alpha near 1. *)
  QCheck.Test.make ~name:"Dist.Pareto empirical mean ~ exact mean" ~count:25
    QCheck.(
      quad small_int (int_range 500 5_000) (int_range 2 100)
        (float_range 1.05 3.0))
    (fun (seed, scale, ratio, alpha) ->
      let d = Dist.Pareto { scale; alpha; cap = scale * ratio } in
      let rng = Rng.create ~seed in
      let n = 30_000 in
      let sum = ref 0.0 in
      for _ = 1 to n do
        sum := !sum +. float_of_int (Dist.sample d rng)
      done;
      let empirical = !sum /. float_of_int n and expected = Dist.mean d in
      abs_float (empirical -. expected) /. expected < 0.08)

(* ---- Eventq ---- *)

(* [pop_until] (no limit unless given) plus [last_time] as one optional
   (time, payload) pair, so the assertions below can compare whole
   results.  [none] is the sentinel: a payload no test queues. *)
let pop_or ~none ?(limit = max_int) q =
  let payload = Eventq.pop_until q ~limit ~none in
  if payload == none then None else Some (Eventq.last_time q, payload)

let pop q = pop_or ~none:"" q
let pop_id ?limit q = pop_or ~none:min_int ?limit q

(* The earliest queued time, up to [upto], read through [precedes]
   without changing the queue: the earliest key sorts before
   [(t, max_int)] exactly when its time is at most [t].  -1 when no key
   is that early. *)
let earliest q ~upto =
  let rec go t =
    if t > upto then -1 else if Eventq.precedes q ~at:t ~seq:max_int then t else go (t + 1)
  in
  go 0

let popped = Alcotest.(option (pair int string))

(* Queue a pinned slot at [at] with the next sequence number, as an engine
   timer's arm does. *)
let arm q slot ~at = Eventq.move q slot ~at ~seq:(Eventq.reserve_seq q)

let test_eventq_ordering () =
  let q = Eventq.create () in
  Eventq.schedule q ~at:30 "c";
  Eventq.schedule q ~at:10 "a";
  Eventq.schedule q ~at:20 "b";
  check popped "a" (Some (10, "a")) (pop q);
  check popped "b" (Some (20, "b")) (pop q);
  check popped "c" (Some (30, "c")) (pop q);
  check popped "empty" None (pop q);
  check Alcotest.int "last_time keeps the last pop" 30 (Eventq.last_time q)

let test_eventq_tie_fifo () =
  let q = Eventq.create () in
  Eventq.schedule q ~at:5 "first";
  let s = Eventq.pin q "second" in
  arm q s ~at:5;
  Eventq.schedule q ~at:5 "third";
  let pop () = match pop q with Some (_, s) -> s | None -> "?" in
  check Alcotest.string "fifo 1" "first" (pop ());
  check Alcotest.string "fifo 2" "second" (pop ());
  check Alcotest.string "fifo 3" "third" (pop ())

(* Unqueueing a pinned slot removes its event from the queue at once:
   [size] drops by one at the unqueue itself, the queue stays well-formed, a
   second unqueue changes nothing, and the next pop is the live event. *)
let test_eventq_cancel () =
  let q = Eventq.create () in
  let s = Eventq.pin q "dead" in
  arm q s ~at:1;
  Eventq.schedule q ~at:2 "alive";
  check Alcotest.int "two scheduled" 2 (Eventq.size q);
  Eventq.unqueue q s;
  check Alcotest.int "size drops at the unqueue" 1 (Eventq.size q);
  Eventq.check_invariants q;
  Eventq.unqueue q s;
  check Alcotest.int "second unqueue is a no-op" 1 (Eventq.size q);
  Eventq.check_invariants q;
  check popped "next pop is the live event" (Some (2, "alive")) (pop q)

(* [pop_until] with a limit before the earliest event is a peek: it
   returns the sentinel and changes nothing. *)
let test_eventq_peek () =
  let q = Eventq.create () in
  let popped_id = Alcotest.(option (pair int int)) in
  check popped_id "empty: nothing due" None (pop_id q);
  let s = Eventq.pin q 7 in
  arm q s ~at:7;
  Eventq.schedule q ~at:9 9;
  check Alcotest.int "peek min" 7 (earliest q ~upto:20);
  check popped_id "nothing due before 7" None (pop_id ~limit:6 q);
  check Alcotest.int "the limit removes nothing" 2 (Eventq.size q);
  check Alcotest.bool "the pinned slot stays queued" true (Eventq.queued q s);
  Eventq.unqueue q s;
  check Alcotest.int "unqueued root is gone" 9 (earliest q ~upto:20);
  check Alcotest.int "size drops at the unqueue" 1 (Eventq.size q);
  Eventq.check_invariants q;
  Eventq.unqueue q s;
  check Alcotest.int "second unqueue is a no-op" 9 (earliest q ~upto:20);
  check Alcotest.int "size unchanged" 1 (Eventq.size q);
  check popped_id "nothing due before 9" None (pop_id ~limit:8 q);
  check popped_id "due at its own time" (Some (9, 9)) (pop_id ~limit:9 q);
  check Alcotest.int "popped the live event" 9 (Eventq.last_time q);
  check Alcotest.int "empty again" (-1) (earliest q ~upto:20)

(* The size counter across pops: unqueueing twice, unqueueing a slot that
   already fired, and reading the size straight after a pop must each
   leave the count exact. *)
let test_eventq_size_counter_exact () =
  let q = Eventq.create () in
  let s1 = Eventq.pin q "a" and s2 = Eventq.pin q "b" in
  arm q s1 ~at:1;
  arm q s2 ~at:2;
  Eventq.schedule q ~at:3 "c";
  check Alcotest.int "three live" 3 (Eventq.size q);
  Eventq.unqueue q s1;
  Eventq.unqueue q s1;
  check Alcotest.int "double unqueue counts once" 2 (Eventq.size q);
  ignore (pop q);
  check Alcotest.int "pop of live event" 1 (Eventq.size q);
  check Alcotest.bool "a popped pinned slot is unqueued" false (Eventq.queued q s2);
  Eventq.unqueue q s2;
  check Alcotest.int "unqueue after pop is a no-op" 1 (Eventq.size q);
  check Alcotest.bool "not empty" false (Eventq.is_empty q);
  ignore (pop q);
  check Alcotest.int "drained" 0 (Eventq.size q);
  check Alcotest.bool "empty" true (Eventq.is_empty q);
  check popped "pop on empty" None (pop q);
  check Alcotest.int "size stays 0" 0 (Eventq.size q)

(* The counter vs the ground truth under random schedule/arm/unqueue/pop
   interleavings: replay the same operations against a reference count. *)
let prop_eventq_size_matches_reference =
  let n_pinned = 5 in
  let op_gen =
    QCheck.(
      list_of_size (Gen.int_range 0 300)
        (pair (int_range 0 3) (int_range 0 10_000)))
  in
  QCheck.Test.make ~name:"Eventq size is exact under random ops" ~count:100
    op_gen (fun ops ->
      let q = Eventq.create () in
      let pinned = Array.init n_pinned (fun k -> Eventq.pin q (-(k + 1))) in
      (* independent reference: the ids of one-shots not yet popped and of
         pinned slots queued — exactly the set [size] claims to count *)
      let live = Hashtbl.create 64 in
      let fresh = ref 0 in
      let ok = ref true in
      List.iter
        (fun (op, x) ->
          let k = x mod n_pinned in
          (match op with
          | 0 ->
              let id = !fresh in
              incr fresh;
              Eventq.schedule q ~at:x id;
              Hashtbl.replace live id ()
          | 1 ->
              arm q pinned.(k) ~at:x;
              Hashtbl.replace live (-(k + 1)) ()
          | 2 ->
              Eventq.unqueue q pinned.(k);
              Hashtbl.remove live (-(k + 1))
          | _ -> (
              match pop_id q with
              | Some (_, id) -> Hashtbl.remove live id
              | None -> if Hashtbl.length live <> 0 then ok := false));
          if
            Eventq.size q <> Hashtbl.length live
            || Eventq.is_empty q <> (Hashtbl.length live = 0)
          then ok := false)
        ops;
      !ok)

let prop_eventq_sorted =
  QCheck.Test.make ~name:"Eventq pops in nondecreasing time order" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 200) (int_range 0 100_000))
    (fun times ->
      let q = Eventq.create () in
      List.iter (fun at -> Eventq.schedule q ~at at) times;
      let rec drain last =
        match pop_id q with
        | None -> true
        | Some (t, at) -> t = at && t >= last && drain t
      in
      drain 0)

let test_eventq_negative_time () =
  let q = Eventq.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Eventq.schedule: negative time")
    (fun () -> Eventq.schedule q ~at:(-1) ());
  let s = Eventq.pin q () in
  Alcotest.check_raises "negative move" (Invalid_argument "Eventq.move: negative time")
    (fun () -> arm q s ~at:(-1))

(* Slot reuse straight after a pop: a popped one-shot frees its slot at
   once, so the next [pin] takes that very slot (the free stack is LIFO)
   and must start unqueued whatever position the slot last held; and an
   unpinned slot goes to the next one-shot.  Neither reuse may disturb the
   other live events or leak a slot. *)
let test_eventq_slot_reuse () =
  let q = Eventq.create () in
  Eventq.schedule q ~at:1 "old";
  Eventq.schedule q ~at:5 "later";
  check popped "old pops" (Some (1, "old")) (pop q);
  let s = Eventq.pin q "pinned" in
  check Alcotest.bool "a new pinned slot starts unqueued" false (Eventq.queued q s);
  Eventq.unqueue q s;
  check Alcotest.int "unqueue of an unqueued slot" 1 (Eventq.size q);
  arm q s ~at:3;
  Eventq.check_invariants q;
  check popped "the reused slot fires in order" (Some (3, "pinned")) (pop q);
  Eventq.unpin q s;
  Eventq.schedule q ~at:4 "reused";
  Eventq.check_invariants q;
  check popped "one-shot in the unpinned slot" (Some (4, "reused")) (pop q);
  check popped "untouched" (Some (5, "later")) (pop q);
  check popped "drained" None (pop q);
  Eventq.check_invariants q

(* Interleaved unqueue/pop must keep the queue exact — no slot
   leaked, every node's recorded position current, both tiers in order —
   checked by the invariant walk after every operation. *)
let test_eventq_invariants_interleaved () =
  let q = Eventq.create () in
  Eventq.check_invariants q;
  (* enough events to force two slab growths past the initial capacity;
     every third is a pinned slot, the rest one-shots *)
  let pinned =
    Array.init 70 (fun i ->
        if i mod 3 = 0 then begin
          let s = Eventq.pin q i in
          arm q s ~at:(i / 3);
          s
        end
        else begin
          Eventq.schedule q ~at:(i / 3) i;
          -1
        end)
    |> Array.to_list
    |> List.filter (fun s -> s >= 0)
    |> Array.of_list
  in
  Eventq.check_invariants q;
  Array.iteri (fun i s -> if i mod 2 = 0 then Eventq.unqueue q s) pinned;
  Eventq.check_invariants q;
  check Alcotest.int "unqueues leave the queue at once" 58 (Eventq.size q);
  let next = ref 0 in
  let rec drain last =
    if not (Eventq.is_empty q) then begin
      (* unqueue mid-drain: queued, unqueued and already-popped slots all
         come through here — each must be idempotent *)
      if !next < Array.length pinned then begin
        Eventq.unqueue q pinned.(!next);
        Eventq.unqueue q pinned.(!next);
        incr next
      end;
      Eventq.check_invariants q;
      let last =
        match pop_id q with
        | Some (at, _) ->
            if at < last then Alcotest.fail "pop went backwards";
            at
        | None -> last
      in
      check Alcotest.bool "size never negative" true (Eventq.size q >= 0);
      Eventq.check_invariants q;
      drain last
    end
  in
  drain 0;
  check Alcotest.int "drained" 0 (Eventq.size q);
  Eventq.check_invariants q

(* The queue's shapes at 10k keys, each checked by [size], the invariant
   walk and the full pop order:
   - keys scheduled in increasing time, three per instant: the run keeps
     the first 32 (its budget) and every later key overflows into the
     heap, so ties at one instant straddle the tiers;
   - keys scheduled in decreasing time: each lands at the run's earliest
     end, so the run holds them all;
   - a pinned slot moved from the run's earliest end past every node to
     its latest end;
   - an unqueue from the run's latest end, which shifts every other node,
     then the same slot re-armed mid-queue, where it overflows into the
     heap. *)
let test_eventq_shapes () =
  let n = 10_000 in
  let drain q =
    let rec go acc = match pop_id q with Some x -> go (x :: acc) | None -> List.rev acc in
    go []
  in
  let pops = Alcotest.(list (pair int int)) in
  let q = Eventq.create () in
  for i = 0 to n - 1 do
    Eventq.schedule q ~at:(i / 3) i
  done;
  Eventq.check_invariants q;
  check Alcotest.int "increasing: size" n (Eventq.size q);
  check pops "increasing: pop order"
    (List.init n (fun i -> (i / 3, i)))
    (drain q);
  Eventq.check_invariants q;
  check Alcotest.int "increasing: drained" 0 (Eventq.size q);
  for i = n downto 1 do
    Eventq.schedule q ~at:i i
  done;
  Eventq.check_invariants q;
  let s = Eventq.pin q (-1) in
  arm q s ~at:0;
  check Alcotest.int "decreasing: the pinned slot leads" 0 (earliest q ~upto:n);
  arm q s ~at:(2 * n);
  Eventq.check_invariants q;
  check Alcotest.int "moved past every node" 1 (earliest q ~upto:n);
  check Alcotest.int "decreasing: size" (n + 1) (Eventq.size q);
  Eventq.unqueue q s;
  Eventq.check_invariants q;
  check Alcotest.int "unqueued from the latest end" n (Eventq.size q);
  check Alcotest.bool "unqueued" false (Eventq.queued q s);
  arm q s ~at:(n / 2);
  Eventq.check_invariants q;
  check pops "decreasing: pop order"
    (List.init n (fun i -> (i + 1, i + 1))
    |> List.concat_map (fun ((at, _) as x) -> if at = n / 2 then [ x; (at, -1) ] else [ x ]))
    (drain q);
  Eventq.check_invariants q;
  check Alcotest.int "decreasing: drained" 0 (Eventq.size q)

(* Acceptance gate: steady-state schedule/pop and the timer cycle — a
   pinned slot armed, popped and re-armed, moved while queued and
   unqueued — allocate nothing.  [pop_until] returns the payload bare; a
   slot is an immediate int.  The small tolerance covers the boxed floats
   the two [Gc.minor_words] calls themselves return — 10k round trips at
   even one word each would blow far past it. *)
let test_eventq_zero_alloc () =
  let q = Eventq.create () in
  let pop_next q = ignore (Eventq.pop_until q ~limit:max_int ~none:(-1)) in
  let s = Eventq.pin q 0 and other = Eventq.pin q 0 in
  for i = 1 to 8 do
    Eventq.schedule q ~at:i i
  done;
  for i = 9 to 100 do
    Eventq.schedule q ~at:i i;
    pop_next q
  done;
  let before = Gc.minor_words () in
  for i = 101 to 10_100 do
    arm q other ~at:(i + 50);
    arm q other ~at:(i + 60);
    Eventq.unqueue q other;
    arm q s ~at:i;
    pop_next q;
    arm q s ~at:(i + 1);
    Eventq.schedule q ~at:i i;
    pop_next q;
    Eventq.unqueue q s
  done;
  let words = Gc.minor_words () -. before in
  if words >= 64.0 then
    Alcotest.failf "steady-state schedule/arm/pop allocated %.0f minor words" words

(* The sorted-list reference model shared by the model properties:
   (time, seq, id) kept sorted by (time, seq) — FIFO at equal instants. *)
let rec model_insert ((t, s, _) as x) = function
  | [] -> [ x ]
  | (t', s', _) :: _ as l when (t, s) < (t', s') -> x :: l
  | y :: tl -> y :: model_insert x tl

let model_remove id = List.filter (fun (_, _, id') -> id' <> id)

(* The two-tier queue against the sorted-list reference through random
   scripts of one-shot events and pinned slots.  One-shots are ids >= 0;
   pinned slot k is id -(k + 1).  An arm of a pinned slot removes it from
   the model and inserts it at the new key, queued or not; an unqueue
   removes it, and an unpin gives the slot back and pins a fresh one in
   its place.  Each script starts with a prefix of up to 96 one-shots in
   nondecreasing time, so the queue often holds more than the run's budget
   of 32 keys: the run keeps the earliest 32 and the rest overflow into the
   heap.  Every time is one of 16 values, so equal-time keys sit in both
   tiers and a pop or peek must break each cross-tier tie by seq.  A pinned
   slot lands in whichever tier its key picks, and each later arm moves it
   earlier or later inside that tier.  Each op can also follow a pop
   straight away (a compound op).  The full invariant walk — both tiers'
   order, slot conservation, every node's recorded tier and index — runs
   after every top-level op. *)
let prop_eventq_model =
  let n_pinned = 6 and n_times = 16 in
  (* A failing script shrinks by dropping one of its halves, quarters or
     eighths (and by a shorter prefix), never op by op: the default
     shrinker also shrinks each of up to 400 ops, which took minutes and
     read as a hang.  Every accepted step drops an eighth or more, so a
     shrink takes at most ~45 steps of at most 14 tries. *)
  let drop_chunks ops yield =
    let n = List.length ops in
    List.iter
      (fun parts ->
        let size = (n + parts - 1) / parts in
        for c = 0 to parts - 1 do
          if c * size < n then
            yield (List.filteri (fun i _ -> i / size <> c) ops)
        done)
      [ 2; 4; 8 ]
  in
  let gen =
    QCheck.(
      set_shrink
        Shrink.(pair int drop_chunks)
        (pair (int_range 0 96)
           (list_of_size (Gen.int_range 0 400) (pair (int_range 0 11) (int_range 0 10_000)))))
  in
  QCheck.Test.make ~name:"Eventq matches the sorted-list reference model"
    ~count:200 ~long_factor:10 gen
    (fun (prefix, ops) ->
      let q = Eventq.create () in
      let pinned = Array.init n_pinned (fun k -> Eventq.pin q (-(k + 1))) in
      let model = ref [] in
      let seq = ref 0 in
      let next = ref 0 in
      let ok = ref true in
      let expect b = if not b then ok := false in
      let take_seq () =
        let s = Eventq.reserve_seq q in
        expect (s = !seq);
        incr seq;
        s
      in
      let schedule at =
        let id = !next in
        incr next;
        Eventq.schedule q ~at id;
        model := model_insert (at, !seq, id) !model;
        incr seq
      in
      for i = 0 to prefix - 1 do
        schedule (i * n_times / (prefix + 1))
      done;
      let rec run code x =
        let k = x mod n_pinned in
        let pid = -(k + 1) in
        match code with
        | 0 | 1 -> schedule (x mod n_times)
        | 2 | 3 ->
            let at = x / n_pinned mod n_times in
            let s = take_seq () in
            Eventq.move q pinned.(k) ~at ~seq:s;
            model := model_insert (at, s, pid) (model_remove pid !model)
        | 4 ->
            Eventq.unqueue q pinned.(k);
            model := model_remove pid !model
        | 5 | 6 -> (
            (* 5 pops whatever leads; 6 only an event due by a limit *)
            let limit = if code = 5 then max_int else x mod n_times in
            match (pop_id ~limit q, !model) with
            | Some (t, id), (t', _, id') :: tl when t = t' && id = id' && t <= limit ->
                model := tl
            | None, [] -> ()
            | None, (t', _, _) :: _ when t' > limit -> ()
            | _ -> ok := false)
        | 7 ->
            let at = x mod n_times and s = x mod (!seq + 1) in
            let want =
              match !model with (t, s', _) :: _ -> (t, s') < (at, s) | [] -> false
            in
            expect (Eventq.precedes q ~at ~seq:s = want)
        | 8 -> expect (Eventq.size q = List.length !model)
        | 9 ->
            Eventq.unpin q pinned.(k);
            model := model_remove pid !model;
            pinned.(k) <- Eventq.pin q pid
        | _ ->
            (* a pop, then up to two more ops straight after it *)
            run 5 x;
            run ((x / 12) mod 10) (x / 7);
            if x mod 2 = 0 then run ((x / 120) mod 10) (x / 11)
      in
      List.iter
        (fun (op, x) ->
          run op x;
          Eventq.check_invariants q;
          expect (Eventq.size q = List.length !model);
          Array.iteri
            (fun k s ->
              expect
                (Eventq.queued q s
                = List.exists (fun (_, _, id) -> id = -(k + 1)) !model))
            pinned)
        ops;
      !ok)

(* [Engine.timer] against the same reference model: one-shot events,
   timers armed, re-armed while armed, and disarmed, and one-shots whose
   callback arms a timer (the engine's common case: a pop followed by an
   insert), fired one [Engine.step] at a time.  A re-arm moves the pinned
   slot in place to the key a disarm plus insert would give it, so it
   takes a fresh sequence number: at an equal instant the re-armed timer
   fires after everything scheduled before the re-arm. *)
let prop_engine_timer_model =
  let n_timers = 4 in
  let op_gen =
    QCheck.(
      list_of_size (Gen.int_range 0 300) (pair (int_range 0 4) (int_range 0 1000)))
  in
  QCheck.Test.make ~name:"Engine timers match the sorted-list reference model"
    ~count:200 ~long_factor:10 op_gen
    (fun ops ->
      let e = Engine.create () in
      let fired = ref None in
      let model = ref [] in
      let seq = ref 0 in
      let insert at id =
        model := model_insert (at, !seq, id) !model;
        incr seq
      in
      (* timer k is model id -(k + 1); one-shots are ids >= 0 *)
      let timers =
        Array.init n_timers (fun k ->
            Engine.timer e (fun () -> fired := Some (Engine.now e, -(k + 1))))
      in
      (* one-shot id -> the timer its callback arms and the delay *)
      let arms = Hashtbl.create 16 in
      let n_shots = ref 0 in
      let ok = ref true in
      let shot at f =
        let id = !n_shots in
        incr n_shots;
        Engine.at e at (fun () ->
            fired := Some (Engine.now e, id);
            f ());
        insert at id;
        id
      in
      List.iter
        (fun (op, x) ->
          let d = x / n_timers mod 13 in
          let at = Engine.now e + d in
          let k = x mod n_timers in
          (match op with
          | 0 -> ignore (shot at ignore)
          | 1 ->
              Engine.arm timers.(k) ~at;
              model := model_remove (-(k + 1)) !model;
              insert at (-(k + 1))
          | 2 ->
              Engine.disarm timers.(k);
              model := model_remove (-(k + 1)) !model
          | 3 ->
              let delay = x mod 5 in
              let id = shot at (fun () -> Engine.arm timers.(k) ~at:(Engine.now e + delay)) in
              Hashtbl.replace arms id (k, delay)
          | _ -> (
              fired := None;
              let stepped = Engine.step e in
              match (stepped, !fired, !model) with
              | true, Some (t, id), (t', _, id') :: tl when t = t' && id = id' -> (
                  model := tl;
                  match Hashtbl.find_opt arms id with
                  | Some (k, delay) ->
                      model := model_remove (-(k + 1)) !model;
                      insert (t + delay) (-(k + 1))
                  | None -> ())
              | false, None, [] -> ()
              | _ -> ok := false));
          if Engine.pending e <> List.length !model then ok := false;
          Array.iteri
            (fun k tm ->
              let in_model = List.exists (fun (_, _, id) -> id = -(k + 1)) !model in
              if Engine.armed tm <> in_model then ok := false)
            timers)
        ops;
      !ok)

(* [Engine.every] against the pre-cohort engine: a sorted-list reference
   in which each [every] is its own self-re-arming event, taking a fresh
   sequence number right after its callback returns [true].  One script
   drives both engines: top-level [every]s (shared and distinct periods,
   added at different instants, members that stop after k firings),
   one-shots placed on
   tick instants so their seqs fall between a cohort's members (the yield
   path), bounded runs, [max_events] budgets and single steps.  Each
   callback logs (clock, id), then performs the script's next nested
   action: another [every] (first due one period after the current
   instant — a cohort's next due instant when a tick of the same period
   runs it), a one-shot, or an exception, which ends the run and drops
   the raising [every].
   Both sides must log the same callbacks in the same order, leave the
   clock at the same instant after every run, and count the same number
   of fired callbacks. *)
type every_spec = { period : int; life : int }

type every_op =
  | Top_every of every_spec
  | Top_shot of int
  | Run_until of int
  | Run_max of int * int
  | Step

type every_act = Nop | Nested_every of every_spec | Nested_shot of int | Nested_raise

(* What a script needs of an engine. *)
type every_iface = {
  now : unit -> int;
  shot : int -> (unit -> unit) -> unit;
  every : period:int -> (unit -> bool) -> unit;
  run : until:int -> max_events:int -> unit;
  step : unit -> bool;
  fired : unit -> int;
}

(* The reference engine: [(time, seq, thunk)] kept by [model_insert]. *)
let reference_iface () =
  let clock = ref 0 and seq = ref 0 and fired = ref 0 and q = ref [] in
  let shot at f =
    q := model_insert (at, !seq, f) !q;
    incr seq
  in
  let every ~period f =
    let rec arm at = shot at (fun () -> if f () then arm (!clock + period)) in
    arm (!clock + period)
  in
  let step () =
    match !q with
    | [] -> false
    | (at, _, f) :: tl ->
        q := tl;
        clock := at;
        incr fired;
        f ();
        true
  in
  let run ~until ~max_events =
    let n = ref 0 in
    let rec loop () =
      if !n < max_events then
        match !q with
        | (at, _, _) :: _ when at <= until ->
            ignore (step ());
            incr n;
            loop ()
        | _ -> clock := max !clock until
    in
    loop ();
    if !q = [] then clock := max !clock until
  in
  { now = (fun () -> !clock); shot; every; run; step; fired = (fun () -> !fired) }

let engine_iface () =
  let e = Engine.create () in
  {
    now = (fun () -> Engine.now e);
    shot = (fun at f -> Engine.at e at f);
    every = (fun ~period f -> Engine.every e ~period f);
    run = (fun ~until ~max_events -> Engine.run ~until ~max_events e);
    step = (fun () -> Engine.step e);
    fired = (fun () -> Engine.events_fired e);
  }

(* Run [ops] on [eng]; returns everything observable, in order. *)
let run_every_script eng ops acts =
  let obs = ref [] in
  let note x = obs := x :: !obs in
  let ids = ref 0 and g = ref 0 and everys = ref 0 in
  let rec add_every { period; life } =
    (* nested spawns are capped so a script cannot grow without bound *)
    if !everys < 40 then begin
      incr everys;
      let id = !ids in
      incr ids;
      let left = ref life in
      eng.every ~period (fun () ->
          note (eng.now (), id);
          act ();
          decr left;
          !left > 0)
    end
  and add_shot d =
    let id = !ids in
    incr ids;
    eng.shot (eng.now () + d) (fun () ->
        note (eng.now (), id);
        act ())
  and act () =
    (* capped too: a same-instant shot that spawns another would loop *)
    if !g < 500 then begin
      let a = acts.(!g mod Array.length acts) in
      incr g;
      match a with
      | Nop -> ()
      | Nested_every s -> add_every s
      | Nested_shot d -> add_shot d
      | Nested_raise -> raise Exit
    end
  in
  (* a raising callback is not re-armed; the run stops and is resumed *)
  let raised f = try f () with Exit -> note (eng.now (), -6) in
  List.iter
    (fun op ->
      match op with
      | Top_every s -> add_every s
      | Top_shot d -> add_shot d
      | Run_until d ->
          raised (fun () -> eng.run ~until:(eng.now () + d) ~max_events:max_int);
          note (eng.now (), -1)
      | Run_max (k, d) ->
          raised (fun () -> eng.run ~until:(eng.now () + d) ~max_events:k);
          note (eng.now (), -2)
      | Step -> raised (fun () -> note (eng.now (), if eng.step () then -3 else -4)))
    (ops @ [ Run_until 40 ]);
  note (eng.fired (), -5);
  List.rev !obs

let every_spec_gen =
  QCheck.Gen.(
    map2
      (fun period life -> { period; life })
      (oneofl [ 2; 3; 4; 6 ])
      (oneofl [ 1; 2; 3; 5; max_int ]))

let show_spec { period; life } =
  Printf.sprintf "{p=%d;life=%s}" period
    (if life = max_int then "inf" else string_of_int life)

let every_script =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun s -> Top_every s) every_spec_gen);
          (3, map (fun d -> Top_shot d) (int_range 0 12));
          (2, map (fun d -> Run_until d) (int_range 0 15));
          (1, map2 (fun k d -> Run_max (k, d)) (int_range 0 8) (int_range 0 15));
          (1, return Step);
        ])
  in
  let act_gen =
    QCheck.Gen.(
      frequency
        [
          (4, return Nop);
          (1, map (fun s -> Nested_every s) every_spec_gen);
          (2, map (fun d -> Nested_shot d) (int_range 0 8));
          (1, return Nested_raise);
        ])
  in
  let show_op = function
    | Top_every s -> "every" ^ show_spec s
    | Top_shot d -> Printf.sprintf "shot+%d" d
    | Run_until d -> Printf.sprintf "until+%d" d
    | Run_max (k, d) -> Printf.sprintf "max%d/until+%d" k d
    | Step -> "step"
  in
  let show_act = function
    | Nop -> "nop"
    | Nested_every s -> "nested-every" ^ show_spec s
    | Nested_shot d -> Printf.sprintf "nested-shot+%d" d
    | Nested_raise -> "nested-raise"
  in
  QCheck.make
    ~print:(fun (ops, acts) ->
      String.concat " " (List.map show_op ops)
      ^ " | "
      ^ String.concat " " (List.map show_act (Array.to_list acts)))
    QCheck.Gen.(
      pair (list_size (int_range 0 60) op_gen) (array_size (int_range 1 20) act_gen))

let prop_engine_every_model =
  QCheck.Test.make ~name:"Engine.every cohorts match separate self-re-arming events"
    ~count:300 ~long_factor:20 every_script (fun (ops, acts) ->
      run_every_script (engine_iface ()) ops acts
      = run_every_script (reference_iface ()) ops acts)

(* Eight same-phase [every]s share one heap entry, yet [run ~max_events]
   and [step] count callbacks: a budget of three runs exactly three
   members, and the rest of the round follows on the next call. *)
let test_engine_every_cohort_budget () =
  let e = Engine.create () in
  let ran = ref [] in
  for k = 0 to 7 do
    Engine.every e ~period:10 (fun () ->
        ran := k :: !ran;
        true)
  done;
  check Alcotest.int "one heap entry for eight ticks" 1 (Engine.pending e);
  Engine.run ~max_events:3 e;
  check (Alcotest.list Alcotest.int) "exactly three callbacks" [ 0; 1; 2 ] (List.rev !ran);
  check Alcotest.int "events_fired counts callbacks" 3 (Engine.events_fired e);
  check Alcotest.bool "step runs one member" true (Engine.step e);
  check (Alcotest.list Alcotest.int) "the fourth member" [ 0; 1; 2; 3 ] (List.rev !ran);
  Engine.run ~until:10 e;
  check Alcotest.int "round finished" 8 (List.length !ran);
  check Alcotest.int "events_fired after the round" 8 (Engine.events_fired e);
  check Alcotest.int "still one heap entry" 1 (Engine.pending e)

(* A cohort round allocates nothing: eight members ticking for 10k
   rounds (80k callbacks) stay under a small minor-word tolerance. *)
let test_engine_every_zero_alloc () =
  let e = Engine.create () in
  for _ = 1 to 8 do
    Engine.every e ~period:10 (fun () -> true)
  done;
  Engine.run ~until:1_000 e;
  let until = 101_000 in
  let before = Gc.minor_words () in
  Engine.run ~until e;
  let words = Gc.minor_words () -. before in
  if words >= 64.0 then
    Alcotest.failf "10k cohort rounds allocated %.0f minor words" words

(* ---- Engine ---- *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.at e 30 (fun () -> log := (30, Engine.now e) :: !log);
  Engine.at e 10 (fun () -> log := (10, Engine.now e) :: !log);
  Engine.after e 20 (fun () -> log := (20, Engine.now e) :: !log);
  Engine.run e;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "events fire in order at the right clock"
    [ (10, 10); (20, 20); (30, 30) ]
    (List.rev !log)

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.at e 100 (fun () -> incr fired);
  Engine.at e 200 (fun () -> incr fired);
  Engine.run ~until:150 e;
  check Alcotest.int "only first fired" 1 !fired;
  check Alcotest.int "clock at limit" 150 (Engine.now e);
  Engine.run e;
  check Alcotest.int "second fires on resume" 2 !fired

let test_engine_until_empty_queue () =
  let e = Engine.create () in
  Engine.run ~until:5_000 e;
  check Alcotest.int "clock advances to until" 5_000 (Engine.now e)

let test_engine_every () =
  let e = Engine.create () in
  let count = ref 0 in
  Engine.every e ~period:10 (fun () ->
      incr count;
      !count < 5);
  Engine.run e;
  check Alcotest.int "five firings" 5 !count;
  check Alcotest.int "stops at 50" 50 (Engine.now e)

(* Regression for [every]'s rewrite onto the rearm seam: tick count,
   interleaving with one-shot events (including the FIFO tie at t=10,
   where the earlier-scheduled periodic event fires first), and the
   engine's fired-event total are exactly what the closure-per-tick
   implementation produced. *)
let test_engine_every_rearm_regression () =
  let e = Engine.create () in
  let log = ref [] in
  let ticks = ref 0 in
  Engine.every e ~period:10 (fun () ->
      incr ticks;
      log := Printf.sprintf "tick@%d" (Engine.now e) :: !log;
      !ticks < 3);
  Engine.at e 5 (fun () -> log := "a@5" :: !log);
  Engine.at e 10 (fun () -> log := "b@10" :: !log);
  Engine.at e 25 (fun () -> log := "c@25" :: !log);
  Engine.run e;
  check (Alcotest.list Alcotest.string) "ordering unchanged"
    [ "a@5"; "tick@10"; "b@10"; "tick@20"; "c@25"; "tick@30" ]
    (List.rev !log);
  check Alcotest.int "events_fired unchanged" 6 (Engine.events_fired e);
  check Alcotest.int "nothing pending" 0 (Engine.pending e);
  check Alcotest.int "clock at final tick" 30 (Engine.now e)

(* The rearm seam itself: one stable timer, re-armed and disarmed in
   place; arming an already-armed timer supersedes the pending firing. *)
let test_engine_timer_rearm () =
  let e = Engine.create () in
  let fired = ref [] in
  let tm = Engine.timer e ignore in
  Engine.set_callback tm (fun () -> fired := Engine.now e :: !fired);
  check Alcotest.bool "fresh timer disarmed" false (Engine.armed tm);
  Engine.arm tm ~at:10;
  check Alcotest.bool "armed" true (Engine.armed tm);
  Engine.arm tm ~at:20;  (* supersedes the t=10 firing *)
  Engine.run e;
  check (Alcotest.list Alcotest.int) "only the superseding arm fired" [ 20 ]
    (List.rev !fired);
  check Alcotest.bool "disarmed after firing" false (Engine.armed tm);
  Engine.arm tm ~at:(Engine.now e + 5);
  Engine.disarm tm;
  Engine.run e;
  check (Alcotest.list Alcotest.int) "disarm cancels" [ 20 ] (List.rev !fired)

(* A disarmed timer never fires, and a timer touches no queue before its
   first arm. *)
let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let tm = Engine.timer e (fun () -> fired := true) in
  check Alcotest.int "a fresh timer queues nothing" 0 (Engine.pending e);
  Engine.disarm tm;
  Engine.arm tm ~at:10;
  Engine.disarm tm;
  check Alcotest.int "disarm empties the queue" 0 (Engine.pending e);
  Engine.run e;
  check Alcotest.bool "disarmed never fires" false !fired

let test_engine_past_raises () =
  let e = Engine.create () in
  Engine.at e 100 (fun () -> ());
  Engine.run e;
  check Alcotest.bool "raises on past schedule" true
    (try
       Engine.at e 50 ignore;
       false
     with Invalid_argument _ -> true)

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.at e 10 (fun () ->
      Engine.after e 5 (fun () -> log := "inner" :: !log);
      log := "outer" :: !log);
  Engine.run e;
  check (Alcotest.list Alcotest.string) "nested" [ "outer"; "inner" ] (List.rev !log);
  check Alcotest.int "clock" 15 (Engine.now e)

let test_engine_max_events () =
  let e = Engine.create () in
  let rec chain () = Engine.after e 1 chain in
  chain ();
  Engine.run ~max_events:100 e;
  check Alcotest.int "bounded" 100 (Engine.events_fired e)

let test_engine_split_rng_deterministic () =
  let mk () =
    let e = Engine.create ~seed:9 () in
    let r = Engine.split_rng e in
    Rng.bits64 r
  in
  check Alcotest.int64 "same seed, same split" (mk ()) (mk ())

(* Disarm contract: disarming a timer that already fired, or one already
   disarmed (any number of times), changes nothing — no callback is lost,
   replayed, or resurrected, and the timers and the engine keep working. *)
let prop_disarm_idempotent =
  QCheck.Test.make ~name:"Engine.disarm is a no-op on fired/disarmed timers"
    ~count:100
    QCheck.(list_of_size (Gen.int_range 0 50) (pair (int_range 0 10_000) bool))
    (fun evs ->
      let engine = Engine.create () in
      let fired = ref 0 in
      let timers =
        List.map
          (fun (at, disarm) ->
            let tm = Engine.timer engine (fun () -> incr fired) in
            Engine.arm tm ~at;
            if disarm then Engine.disarm tm;
            tm)
          evs
      in
      (* double-disarm before the run *)
      List.iter2 (fun tm (_, disarm) -> if disarm then Engine.disarm tm) timers evs;
      Engine.run engine;
      let expected = List.length (List.filter (fun (_, d) -> not d) evs) in
      let fired_before = !fired in
      (* disarm every timer — fired and disarmed alike — twice over *)
      List.iter Engine.disarm timers;
      List.iter Engine.disarm timers;
      (* every timer still re-arms and fires once more *)
      List.iter (fun tm -> Engine.arm tm ~at:20_000) timers;
      Engine.run engine;
      fired_before = expected
      && !fired = fired_before + List.length evs
      && Engine.pending engine = 0)

let suite =
  [
    Alcotest.test_case "time: units" `Quick test_time_units;
    Alcotest.test_case "time: cycles" `Quick test_time_cycles;
    Alcotest.test_case "time: float conversions" `Quick test_time_float;
    Alcotest.test_case "time: pp" `Quick test_time_pp;
    Alcotest.test_case "rng: deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng: seeds diverge" `Quick test_rng_seed_matters;
    Alcotest.test_case "rng: copy" `Quick test_rng_copy;
    Alcotest.test_case "rng: split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng: exponential mean" `Slow test_rng_exponential_mean;
    Alcotest.test_case "rng: bad bound" `Quick test_rng_int_bad_bound;
    Alcotest.test_case "rng: known answers" `Quick test_rng_known_answers;
    Alcotest.test_case "rng: draws allocate nothing" `Quick test_rng_draws_allocate_nothing;
    qtest prop_int_in_range;
    qtest prop_uniform_in_unit;
    Alcotest.test_case "dist: constant" `Quick test_dist_constant;
    Alcotest.test_case "dist: bimodal fractions" `Slow test_dist_bimodal_fractions;
    Alcotest.test_case "dist: exact means" `Quick test_dist_means;
    Alcotest.test_case "dist: paper workloads" `Quick test_dist_paper_workloads;
    Alcotest.test_case "dist: empirical exponential" `Slow test_dist_empirical_exponential;
    Alcotest.test_case "dist: pareto exact means" `Quick test_dist_pareto_exact_mean;
    Alcotest.test_case "dist: pareto bounded" `Slow test_dist_pareto_bounded;
    Alcotest.test_case "dist: pareto invalid args" `Quick test_dist_pareto_invalid;
    Alcotest.test_case "dist: pareto empirical mean" `Slow
      test_dist_pareto_empirical_mean;
    qtest prop_pareto_empirical_mean;
    qtest prop_sample_positive;
    Alcotest.test_case "eventq: ordering" `Quick test_eventq_ordering;
    Alcotest.test_case "eventq: FIFO ties" `Quick test_eventq_tie_fifo;
    Alcotest.test_case "eventq: cancel" `Quick test_eventq_cancel;
    Alcotest.test_case "eventq: peek" `Quick test_eventq_peek;
    Alcotest.test_case "eventq: negative time" `Quick test_eventq_negative_time;
    Alcotest.test_case "eventq: size counter exact" `Quick
      test_eventq_size_counter_exact;
    Alcotest.test_case "eventq: slot reuse after a pop" `Quick
      test_eventq_slot_reuse;
    Alcotest.test_case "eventq: invariants interleaved" `Quick
      test_eventq_invariants_interleaved;
    Alcotest.test_case "eventq: tier shapes at 10k keys" `Quick test_eventq_shapes;
    Alcotest.test_case "eventq: zero-alloc steady state" `Quick
      test_eventq_zero_alloc;
    qtest prop_eventq_size_matches_reference;
    qtest prop_eventq_sorted;
    qtest prop_eventq_model;
    qtest prop_engine_timer_model;
    qtest prop_engine_every_model;
    Alcotest.test_case "engine: ordering" `Quick test_engine_ordering;
    Alcotest.test_case "engine: until" `Quick test_engine_until;
    Alcotest.test_case "engine: until empty" `Quick test_engine_until_empty_queue;
    Alcotest.test_case "engine: every" `Quick test_engine_every;
    Alcotest.test_case "engine: every rearm regression" `Quick
      test_engine_every_rearm_regression;
    Alcotest.test_case "engine: timer rearm seam" `Quick test_engine_timer_rearm;
    Alcotest.test_case "engine: cancel" `Quick test_engine_cancel;
    Alcotest.test_case "engine: past raises" `Quick test_engine_past_raises;
    Alcotest.test_case "engine: nested" `Quick test_engine_nested_schedule;
    Alcotest.test_case "engine: max events" `Quick test_engine_max_events;
    Alcotest.test_case "engine: every cohort counts callbacks" `Quick
      test_engine_every_cohort_budget;
    Alcotest.test_case "engine: every cohort round allocates nothing" `Quick
      test_engine_every_zero_alloc;
    Alcotest.test_case "engine: rng determinism" `Quick test_engine_split_rng_deterministic;
    qtest prop_disarm_idempotent;
  ]
