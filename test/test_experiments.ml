(* Smoke and shape tests for the experiment harnesses: each figure/table
   module runs end-to-end at a tiny simulated duration and its headline
   orderings hold.  These catch regressions in the reproduction pipeline
   itself. *)

module Time = Skyloft_sim.Time
module E = Skyloft_experiments

let check = Alcotest.check

(* Tiny config: enough samples for orderings, fast enough for CI. *)
let tiny = { E.Config.duration = Time.ms 40; seed = 7; jobs = 1; requests = None }

let test_fig5_shape () =
  (* Run one Linux and one Skyloft system at one oversubscribed point. *)
  let linux =
    E.Fig5.run_one tiny (List.nth E.Fig5.systems 1) (* Linux-CFS *) ~workers:48
  in
  let sky =
    E.Fig5.run_one tiny (List.nth E.Fig5.systems 6) (* Skyloft-CFS *) ~workers:48
  in
  let module H = Skyloft_stats.Histogram in
  check Alcotest.bool "samples collected" true (H.count linux > 50 && H.count sky > 50);
  check Alcotest.bool "Skyloft p99 << Linux p99" true
    (H.percentile sky 99.0 * 10 < H.percentile linux 99.0)

let test_fig6_proportionality () =
  let p99 slice =
    Skyloft_stats.Histogram.percentile
      (E.Fig5.run_one tiny (E.Fig6.system slice) ~workers:48)
      99.0
  in
  let small = p99 (Some (Time.us 10)) in
  let big = p99 (Some (Time.us 200)) in
  let fifo = p99 None in
  check Alcotest.bool "latency grows with slice" true (small < big && big < fifo)

let test_fig7_orderings () =
  let point system =
    E.Fig7.run_point tiny system ~with_be:false
      ~rate_rps:(0.8 *. E.Fig7.saturation)
  in
  let sky = point (E.Fig7.Skyloft_c (Time.us 30)) in
  let shinjuku = point E.Fig7.Shinjuku_c in
  let ghost = point E.Fig7.Ghost_c in
  check Alcotest.bool "Skyloft ~ Shinjuku (within 2x)" true
    (sky.E.Fig7.p99_us < 2.0 *. shinjuku.E.Fig7.p99_us
    && shinjuku.E.Fig7.p99_us < 2.0 *. sky.E.Fig7.p99_us);
  check Alcotest.bool "ghOSt worse than Skyloft" true
    (ghost.E.Fig7.p99_us > sky.E.Fig7.p99_us)

let test_fig7_be_share () =
  let low =
    E.Fig7.run_point tiny (E.Fig7.Skyloft_c (Time.us 30)) ~with_be:true
      ~rate_rps:(0.1 *. E.Fig7.saturation)
  in
  let high =
    E.Fig7.run_point tiny (E.Fig7.Skyloft_c (Time.us 30)) ~with_be:true
      ~rate_rps:(0.9 *. E.Fig7.saturation)
  in
  check Alcotest.bool "batch share shrinks with load" true
    (low.E.Fig7.be_share > high.E.Fig7.be_share);
  let shinjuku =
    E.Fig7.run_point tiny E.Fig7.Shinjuku_c ~with_be:true
      ~rate_rps:(0.5 *. E.Fig7.saturation)
  in
  check (Alcotest.float 1e-9) "Shinjuku batch share is zero" 0.0
    shinjuku.E.Fig7.be_share

let test_fig8b_preemption_wins () =
  let run system =
    E.Fig8.run_server tiny system ~workers:6
      ~service:Skyloft_apps.Rocksdb.service
      ~rate_rps:(0.6 *. Skyloft_apps.Rocksdb.saturation_rps ~cores:6)
  in
  let sky = run (E.Fig8.Sky_ws (Some (Time.us 5))) in
  let shenango = run E.Fig8.Shenango_ws in
  check Alcotest.bool "preemption crushes the slowdown tail" true
    (sky.E.Fig8.p999_slowdown *. 3.0 < shenango.E.Fig8.p999_slowdown)

let test_tables_print () =
  (* The table printers must run without raising and return content. *)
  let rows4 = E.Tables.print_table4 () in
  check Alcotest.bool "table4 rows" true (List.length rows4 >= 6);
  E.Tables.print_table5 ();
  let rows6 = E.Tables.print_table6 () in
  check Alcotest.int "table6 has six mechanisms" 6 (List.length rows6);
  let rows7 = E.Tables.print_table7_model () in
  check Alcotest.int "table7 has four ops" 4 (List.length rows7);
  E.Tables.print_appswitch ()

let test_table4_loc_counts () =
  (* Policy files exist and are small (the Table 4 claim). *)
  List.iter
    (fun (name, path) ->
      match E.Tables.count_loc path with
      | Some loc ->
          check Alcotest.bool (name ^ " under 200 LoC") true (loc > 5 && loc < 200)
      | None -> Alcotest.fail (path ^ " missing"))
    E.Tables.policy_files;
  (* the framework block counts real files too *)
  List.iter
    (fun (_, path) ->
      check Alcotest.bool (path ^ " counted") true (E.Tables.count_loc path <> None))
    E.Tables.framework_files

(* The SLO knee over (metric, achieved) points. *)
let test_knee () =
  let knee = E.Harness.knee ~slo:100.0 fst snd in
  check (Alcotest.float 0.0) "no point under the SLO gives 0" 0.0
    (knee [ (150.0, 1.0); (101.0, 2.0) ]);
  check (Alcotest.float 0.0) "a non-monotone tail takes the max achieved load" 9.0
    (knee [ (10.0, 4.0); (90.0, 9.0); (300.0, 12.0); (50.0, 7.0) ]);
  check (Alcotest.float 0.0) "a point exactly at the SLO counts" 5.0
    (knee [ (20.0, 3.0); (100.0, 5.0); (100.5, 6.0) ])

let suite =
  [
    Alcotest.test_case "fig5 shape" `Slow test_fig5_shape;
    Alcotest.test_case "fig6 proportionality" `Slow test_fig6_proportionality;
    Alcotest.test_case "fig7 orderings" `Slow test_fig7_orderings;
    Alcotest.test_case "fig7 batch share" `Slow test_fig7_be_share;
    Alcotest.test_case "fig8b preemption wins" `Slow test_fig8b_preemption_wins;
    Alcotest.test_case "tables print" `Quick test_tables_print;
    Alcotest.test_case "table4 loc" `Quick test_table4_loc_counts;
    Alcotest.test_case "knee: max load at or under SLO" `Quick test_knee;
  ]
