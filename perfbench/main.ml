(* Host cost of simulating the scale cells.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   A workload is one scale cell: a scenario from the [scale] experiment
   compiled onto one runtime.  A run warms the cell up, times
   [setup_reps] one-request cells (cell construction plus the minimum
   drain window: the per-cell cost that no request count amortises
   away), then runs cells of [requests] requests back to back for S
   seconds, cycling through [sub_seeds] seeds derived from N, and reports
   the median host ns per simulated request.  Both timings are scaled to
   a nominal host speed by the reference block below.

   With --trace 1 the same loop runs under a SIGPROF sampler that charges
   each sample to the library layer of the innermost simulator frame on
   the stack, and the run reports per-layer ns per request and the
   allocation counters instead; spans are written to
   perfbench/trace/<workload>-seed<N>.json.

   Every cell's digest is checked for request conservation and latency
   sanity, and a sub-seed that runs twice must reproduce its digest byte
   for byte, traced cells included, so profiling cannot perturb the
   simulation.  The last line of stdout is one JSON object. *)

module Scenario = Skyloft_scenario.Scenario
module Shape = Skyloft_scenario.Shape
module Scale = Skyloft_experiments.Scale
module Histogram = Skyloft_stats.Histogram
module Dist = Skyloft_sim.Dist

type workload = {
  name : string;
  scenario : Scenario.t;
  runtime : Scenario.runtime;
}

(* Two scenarios on one runtime isolate the workload layer; one scenario
   on two runtimes isolates the runtime layer; the bursty cell is the one
   where stealing, chains and fan-out joins all run. *)
let workloads =
  [
    (* per-core timers and the work-stealing policy under a heavy tail *)
    { name = "pareto-percpu"; scenario = Scale.steady_pareto; runtime = Percpu };
    (* the same inputs through the serial dispatcher, bypassing the
       per-CPU policy path *)
    { name = "pareto-hybrid"; scenario = Scale.steady_pareto; runtime = Hybrid };
    (* MMPP bursts, 3-stage chains and 4-way fan-out on steal-half deques *)
    { name = "mmpp-worksteal"; scenario = Scale.bursty_mmpp; runtime = Worksteal };
    (* 120 tenant streams and per-app kernel threads on per-core timers *)
    { name = "mix-percpu"; scenario = Scale.tenant_mix; runtime = Percpu };
  ]

(* 50k requests keep one cell at 0.15-0.5 s of host time, so a 20 s run
   holds 40-130 cells and the median shrugs off a stalled one. *)
let requests = 50_000
let setup_reps = 15
let sub_seeds = 8

let now = Unix.gettimeofday

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ---- spans and the sampling profiler ------------------------------------ *)

(* Layers are the library directories.  The sim leaf helpers (Rng, Dist,
   Time, Coro) and the standard library are charged to their caller. *)
let layers =
  [| "eventq"; "hw"; "kernel"; "runtime"; "policy"; "alloc"; "workload"; "stats" |]

let unattributed = Array.length layers

let layer_of_file f =
  let dir d = String.starts_with ~prefix:("lib/" ^ d ^ "/") f in
  if f = "lib/sim/eventq.ml" || f = "lib/sim/engine.ml" then 0
  else if dir "hw" then 1
  else if dir "kernel" then 2
  else if dir "core" then 3
  else if dir "policies" then 4
  else if dir "alloc" then 5
  else if dir "scenario" || dir "net" then 6
  else if dir "stats" || dir "obs" then 7
  else -1

type span = {
  id : int;
  parent : int;
  label : string;
  start : float;
  mutable stop : float;
  samples : int array;  (* per layer, then unattributed *)
}

let spans = ref []
let current = ref None

let with_span ~parent label f =
  let s =
    {
      id = List.length !spans;
      parent;
      label;
      start = now ();
      stop = 0.0;
      samples = Array.make (unattributed + 1) 0;
    }
  in
  spans := s :: !spans;
  let outer = !current in
  current := Some s;
  let r = f s in
  s.stop <- now ();
  current := outer;
  r

(* Frame address -> layer, or -1 for frames charged to their caller. *)
let frame_layers : (Printexc.raw_backtrace_entry, int) Hashtbl.t =
  Hashtbl.create 512

let classify entry =
  match Hashtbl.find_opt frame_layers entry with
  | Some l -> l
  | None ->
      let l =
        match Printexc.backtrace_slots_of_raw_entry entry with
        | None -> -1
        | Some slots ->
            Array.fold_left
              (fun acc slot ->
                if acc >= 0 then acc
                else
                  match Printexc.Slot.location slot with
                  | Some loc -> layer_of_file loc.Printexc.filename
                  | None -> -1)
              (-1) slots
      in
      Hashtbl.add frame_layers entry l;
      l

(* Allocation done by the handler itself, subtracted from the counters. *)
let handler_words = ref 0.0

let on_sample _ =
  let w0 = Gc.minor_words () in
  (match !current with
  | None -> ()
  | Some s ->
      let entries = Printexc.raw_backtrace_entries (Printexc.get_callstack 32) in
      let n = Array.length entries in
      let rec first i =
        if i = n then unattributed
        else
          let l = classify entries.(i) in
          if l >= 0 then l else first (i + 1)
      in
      let l = first 0 in
      s.samples.(l) <- s.samples.(l) + 1);
  handler_words := !handler_words +. (Gc.minor_words () -. w0)

let set_profiler on =
  let period = if on then 0.001 else 0.0 in
  if on then Sys.set_signal Sys.sigprof (Sys.Signal_handle on_sample);
  ignore
    (Unix.setitimer Unix.ITIMER_PROF
       { Unix.it_interval = period; it_value = period })

let write_spans ~path ~workload ~seed ~t0 =
  let oc = open_out path in
  Printf.fprintf oc "{\"workload\": %S, \"seed\": %d, \"layers\": [%s],\n \"spans\": ["
    workload seed
    (String.concat ", "
       (List.map (Printf.sprintf "%S")
          (Array.to_list layers @ [ "unattributed" ])));
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n  {\"id\": %d, \"parent\": %d, \"name\": %S, \"start_s\": %.6f, \
         \"end_s\": %.6f, \"samples\": [%s]}"
        (if i = 0 then "" else ",")
        s.id s.parent s.label (s.start -. t0) (s.stop -. t0)
        (String.concat ", "
           (Array.to_list (Array.map string_of_int s.samples))))
    (List.rev !spans);
  output_string oc "\n]}\n";
  close_out oc

(* ---- host-speed reference ------------------------------------------------ *)

(* A shared cloud host's speed drifts by up to 1.5x over seconds to
   minutes as other tenants contend for its cores and caches (measured on
   a 2-vCPU Xeon VM), far more than the changes this benchmark must
   resolve.  So a fixed block of work, an ALU loop over an L1-sized array
   plus random updates over a 4 MB one, runs between cells, and each
   timing is scaled by [reference_nominal_s] over the mean time of the
   blocks on either side of it: it reads as the time on a host that runs
   the block in exactly [reference_nominal_s].  Over ten 20 s runs per
   workload on that VM, this cut the spread of the run medians
   (interquartile range over median) from 8-38% unscaled to 1.5-4.7%.
   The block does not depend on the simulator; editing it or the
   constant re-bases every metric. *)
let reference_nominal_s = 0.004
let l1_block = Array.make 4096 0
let l3_block = Array.make (512 * 1024) 0

let reference ~parent =
  with_span ~parent "reference" (fun _ ->
      let start = now () in
      for i = 0 to 999_999 do
        let j = (i * 7919) land 4095 in
        l1_block.(j) <- l1_block.(j) + i
      done;
      let x = ref 12345 in
      for _ = 1 to 500_000 do
        x := ((!x * 1103515245) + 12345) land 0x3fffffff;
        let j = !x land (Array.length l3_block - 1) in
        l3_block.(j) <- l3_block.(j) + 1
      done;
      now () -. start)

(* ---- correctness ---------------------------------------------------------- *)

let errors = ref []
let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt

(* A request's latency is at least its own compute; for a fan-out, at
   least one stage's. *)
let rec min_latency_mean = function
  | Shape.Single d -> Dist.mean d
  | Shape.Chain ds -> List.fold_left (fun acc d -> acc +. Dist.mean d) 0.0 ds
  | Shape.Fanout { stage; _ } -> Dist.mean stage
  | Shape.Mix branches ->
      let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 branches in
      List.fold_left
        (fun acc (w, s) -> acc +. (w /. total *. min_latency_mean s))
        0.0 branches

let check (w : workload) (d : Scenario.digest) =
  let lcs =
    List.filter_map
      (function Scenario.Lc l -> Some l | Scenario.Be _ -> None)
      w.scenario.tenants
  in
  if d.completed <> d.submitted then
    fail "%s: %d of %d requests completed" w.name d.completed d.submitted;
  if d.submitted < d.target || d.submitted > d.target + List.length lcs then
    fail "%s: %d submitted for a target of %d" w.name d.submitted d.target;
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 d.tenants in
  if sum (fun t -> t.Scenario.submitted) <> d.submitted
     || sum (fun t -> t.Scenario.completed) <> d.completed
  then fail "%s: tenant counts do not add up" w.name;
  if List.length d.tenants <> List.length lcs then
    fail "%s: %d tenant digests for %d LC tenants" w.name
      (List.length d.tenants) (List.length lcs)
  else
    List.iter2
      (fun (t : Scenario.tenant_digest) (l : Scenario.lc_spec) ->
        if t.tenant <> l.lc_name then fail "%s: tenant order changed" w.name
        else if Histogram.count t.latency <> t.completed then
          fail "%s/%s: %d latencies for %d completions" w.name t.tenant
            (Histogram.count t.latency) t.completed
        else if
          t.completed >= 1000
          && Histogram.mean t.latency < 0.5 *. min_latency_mean l.shape
        then
          fail "%s/%s: mean latency %.0f ns below the service it contains"
            w.name t.tenant (Histogram.mean t.latency))
      d.tenants lcs;
  let all = Scenario.merged_latency d in
  let p50 = Histogram.percentile all 50.0
  and p99 = Histogram.percentile all 99.0 in
  if Histogram.min_value all < 1 || p50 > p99 || Histogram.max_value all < p50
  then fail "%s: latency distribution out of order" w.name

(* ---- the run ---------------------------------------------------------------- *)

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

type totals = {
  mutable per_request : float list;  (* scaled ns per request, one per cell *)
  mutable raw_per_request : float list;
  mutable attempted : int;
  mutable failed : int;
  mutable words : float;
  mutable promoted : float;
  mutable minor_gcs : int;
  mutable major_gcs : int;
}

let metric name unit value =
  Printf.sprintf "%S: {\"value\": %.12g, \"unit\": %S}" name value unit

(* Per-layer metrics: each layer's share of the samples taken inside
   measured cells, times the cell's scaled ns per request. *)
let layer_metrics (t : totals) ~ns_per_request =
  let counts = Array.make (unattributed + 1) 0 in
  List.iter
    (fun s ->
      if s.label = "cell" then
        Array.iteri (fun i n -> counts.(i) <- counts.(i) + n) s.samples)
    !spans;
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then fail "the profiler took no samples";
  let layer_ns i =
    float_of_int counts.(i) /. float_of_int (max 1 total) *. ns_per_request
  in
  let per_req x = x /. float_of_int t.attempted in
  List.mapi
    (fun i name -> metric (name ^ "_ns_per_request") "ns" (layer_ns i))
    (Array.to_list layers @ [ "unattributed" ])
  @ [
      metric "traced_ns_per_request" "ns" ns_per_request;
      metric "minor_words_per_request" "words" (per_req t.words);
      metric "promoted_words_per_request" "words" (per_req t.promoted);
      metric "minor_gcs_per_1k_requests" "count"
        (1e3 *. per_req (float_of_int t.minor_gcs));
      metric "major_gcs_per_1m_requests" "count"
        (1e6 *. per_req (float_of_int t.major_gcs));
      metric "top_heap_mb" "MB"
        (float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
        /. 1e6);
    ]

let run w ~seed ~seconds ~traced root =
  let parent = root.id in
  let sub_seed k = (seed * sub_seeds) + k in
  let cell label k ~requests =
    let d =
      with_span ~parent label (fun _ ->
          Scenario.run ~seed:(sub_seed k) ~requests ~runtime:w.runtime
            w.scenario)
    in
    check w d;
    d
  in
  (* Determinism: every rerun of a (sub-seed, size) pair must match. *)
  let first_digest = Hashtbl.create sub_seeds and repeats = ref 0 in
  let remember key d =
    let s = Scenario.digest_string d in
    match Hashtbl.find_opt first_digest key with
    | None -> Hashtbl.add first_digest key s
    | Some s0 ->
        incr repeats;
        if s <> s0 then
          fail "%s: sub-seed %d is not deterministic" w.name (fst key)
  in
  remember (0, requests) (cell "warmup" 0 ~requests);
  (* Time [f], then run a reference block; the time is scaled by the
     blocks on either side. *)
  let r_prev = ref (reference ~parent) in
  let timed f =
    let start = now () in
    let x = f () in
    let dt = now () -. start in
    let r = reference ~parent in
    let scale = reference_nominal_s /. ((!r_prev +. r) /. 2.0) in
    r_prev := r;
    (x, dt, dt *. scale)
  in
  let setup_s =
    median
      (List.init setup_reps (fun _ ->
           let d, _, s = timed (fun () -> cell "setup" 0 ~requests:1) in
           remember (0, 1) d;
           s))
  in
  let t =
    {
      per_request = [];
      raw_per_request = [];
      attempted = 0;
      failed = 0;
      words = 0.0;
      promoted = 0.0;
      minor_gcs = 0;
      major_gcs = 0;
    }
  in
  if traced then set_profiler true;
  let deadline = now () +. float_of_int seconds in
  let k = ref 0 in
  while !k = 0 || now () < deadline do
    let sub = !k mod sub_seeds in
    let g0 = Gc.quick_stat () and h0 = !handler_words in
    let d, dt, scaled = timed (fun () -> cell "cell" sub ~requests) in
    let g1 = Gc.quick_stat () in
    let ns_per_req secs = secs *. 1e9 /. float_of_int d.completed in
    t.raw_per_request <- ns_per_req dt :: t.raw_per_request;
    t.per_request <- ns_per_req scaled :: t.per_request;
    t.words <-
      t.words +. (g1.minor_words -. g0.minor_words) -. (!handler_words -. h0);
    t.promoted <- t.promoted +. (g1.promoted_words -. g0.promoted_words);
    t.minor_gcs <- t.minor_gcs + (g1.minor_collections - g0.minor_collections);
    t.major_gcs <- t.major_gcs + (g1.major_collections - g0.major_collections);
    t.attempted <- t.attempted + d.submitted;
    t.failed <- t.failed + (d.submitted - d.completed);
    remember (sub, requests) d;
    incr k
  done;
  if traced then set_profiler false;
  if !repeats = 0 then remember (0, requests) (cell "recheck" 0 ~requests);
  let ns_per_request = median t.per_request in
  Printf.printf
    "%s seed %d: %d cells of %d requests, %.0f ns/request (%.0f unscaled, \
     last reference block %.2f ms); set-up %.2f ms, median of %d%s\n"
    w.name seed !k requests ns_per_request (median t.raw_per_request)
    (!r_prev *. 1e3) (setup_s *. 1e3) setup_reps
    (if traced then ", traced" else "");
  let metrics =
    if traced then layer_metrics t ~ns_per_request
    else
      [ metric "ns_per_request" "ns" ns_per_request; metric "setup_s" "s" setup_s ]
  in
  (t, metrics)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  one of the scale cells");
      ("--seed", Arg.Set_int seed, "N  input seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S  measuring time (>= 1)");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end or per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline
          ("unknown workload; one of: "
          ^ String.concat ", " (List.map (fun w -> w.name) workloads));
        exit 2
  in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let traced = !trace = 1 in
  let t0 = now () in
  let t, metrics =
    with_span ~parent:(-1) "run"
      (run w ~seed:!seed ~seconds:!seconds ~traced)
  in
  if traced then begin
    (try Sys.mkdir "perfbench/trace" 0o755 with Sys_error _ -> ());
    write_spans
      ~path:(Printf.sprintf "perfbench/trace/%s-seed%d.json" w.name !seed)
      ~workload:w.name ~seed:!seed ~t0
  end;
  List.iter (fun e -> prerr_endline ("check failed: " ^ e)) (List.rev !errors);
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!errors = []) t.attempted t.failed
    (String.concat ", " metrics)
