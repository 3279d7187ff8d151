(* Determinism regression: the simulation — fault injection included — is
   a pure function of the seed.  Two runs at the same seed must agree to
   the byte (traces) and to the last counter (sweep points), and the
   committed golden fingerprints pin the exact behaviour: any refactor
   that changes a single scheduling decision, cost charge, or trace byte
   at the fixed seeds fails here.  Regenerate intentionally with
   [skyloft_run golden] after a behaviour-changing change. *)

open Alcotest
module Time = Skyloft_sim.Time
module E = Skyloft_experiments
module Scenario = Skyloft_scenario.Scenario

let test_trace_byte_identical () =
  let json1, injected1, _ = E.Golden.traced ~seed:1234 Scenario.Percpu in
  let json2, injected2, _ = E.Golden.traced ~seed:1234 Scenario.Percpu in
  check bool "faults were actually injected" true (injected1 > 0);
  check int "same injection count" injected1 injected2;
  check bool "traces byte-identical at the same seed" true
    (String.equal json1 json2)

let test_hybrid_trace_byte_identical () =
  let json1, injected1, switches1 = E.Golden.traced ~seed:1234 Scenario.Hybrid in
  let json2, injected2, switches2 = E.Golden.traced ~seed:1234 Scenario.Hybrid in
  check bool "faults were actually injected" true (injected1 > 0);
  check bool "the burst crossed the hysteresis band (both modes covered)" true
    (switches1 >= 2);
  check int "same injection count" injected1 injected2;
  check int "same mode-switch count" switches1 switches2;
  check bool "traces byte-identical at the same seed" true
    (String.equal json1 json2)

let test_worksteal_trace_byte_identical () =
  let json1, injected1, steals1 = E.Golden.traced ~seed:1234 Scenario.Worksteal in
  let json2, injected2, steals2 = E.Golden.traced ~seed:1234 Scenario.Worksteal in
  check bool "faults were actually injected" true (injected1 > 0);
  check bool "the pinned backlog was actually stolen" true (steals1 > 0);
  check int "same injection count" injected1 injected2;
  check int "same steal count" steals1 steals2;
  check bool "traces byte-identical at the same seed" true
    (String.equal json1 json2)

let test_sweep_point_reproducible () =
  let config = { E.Config.duration = Time.ms 5; seed = 11; jobs = 1; requests = None } in
  List.iter
    (fun runtime ->
      let p1 = E.Fault_sweep.run_point config ~runtime ~rate:0.05 in
      let p2 = E.Fault_sweep.run_point config ~runtime ~rate:0.05 in
      check bool
        (Printf.sprintf "%s: identical point at the same seed"
           p1.E.Fault_sweep.runtime)
        true (p1 = p2))
    E.Fault_sweep.runtimes

let test_sweep_fault_free_reproducible () =
  (* rate 0 arms nothing: the fault machinery present but disabled must
     still be a pure function of the seed (no hidden RNG draws). *)
  let config = { E.Config.duration = Time.ms 5; seed = 3; jobs = 1; requests = None } in
  let p1 = E.Fault_sweep.run_point config ~runtime:Scenario.Percpu ~rate:0.0 in
  let p2 = E.Fault_sweep.run_point config ~runtime:Scenario.Percpu ~rate:0.0 in
  check bool "fault-free runs identical" true (p1 = p2);
  check int "nothing injected at rate 0" 0 p1.E.Fault_sweep.injected

let test_obs_registry_transparent () =
  (* Attaching the metrics registry (and snapshotting it) must not perturb
     the simulation: the trace-and-attribution fingerprint of a registry-on
     run must equal the registry-off run at the same seed. *)
  let config = { E.Config.duration = Time.ms 5; seed = 7; jobs = 1; requests = None } in
  List.iter
    (fun runtime ->
      let on_ = E.Obs_report.run_point config ~runtime ~instrumented:true in
      let off = E.Obs_report.run_point config ~runtime ~instrumented:false in
      check bool "registry produced samples" true
        (on_.E.Obs_report.samples <> [] && off.E.Obs_report.samples = []);
      check string
        (Printf.sprintf "%s: registry-on fingerprint equals registry-off"
           on_.E.Obs_report.runtime)
        off.E.Obs_report.fingerprint on_.E.Obs_report.fingerprint;
      check int
        (Printf.sprintf "%s: no attribution mismatches" on_.E.Obs_report.runtime)
        0 on_.E.Obs_report.mismatches)
    E.Obs_report.runtimes

(* The committed goldens.  The percpu and centralized values predate the
   Runtime_core extraction: both runtimes rewritten over the shared
   substrate reproduce their original behaviour to the byte.

   Regenerated intentionally with the work-stealing steal-loop bugfix
   (owner-head LIFO with preempted-to-tail, persisted per-thief steal
   cursor with early break, rotating unmanaged-waker fallback):
   - the scale-*-percpu cells run the fixed Work_stealing policy under
     sustained queueing, where LIFO pops and the rotated fallback are
     visible;
   - obs-machine and oversub-* additionally rotate their mixed tenant
     fleets through all FOUR runtimes now (worksteal included).
   Every centralized and hybrid cell, trace-percpu (Fifo policy), and
   even fault-sweep-percpu / obs-report-percpu — whose queues rarely
   exceed depth 1, so head-vs-tail is indistinguishable — reproduce
   their previous bytes exactly.

   Regenerated intentionally when the centralized runtime became the
   hybrid pinned to its serial dispatcher ([Hybrid.create
   ~adaptive:false]): trace-centralized, obs-report-centralized and
   obs-machine gain [App_switch] instants, which the old module alone
   suppressed.  With those instants filtered out each trace is
   event-for-event identical to before.  obs-report-centralized now
   equals obs-report-hybrid, whose monitor never leaves central mode on
   that workload.  Every scale-*, oversub-* and fault-sweep-* cell
   (fault-sweep-centralized included) is unchanged.

   No regeneration when the work-stealing runtime became the per-CPU
   runtime under the steal-half policy ([Work_stealing.steal_half] on
   [Percpu.create ~park]): every *-worksteal cell and every mixed fleet
   keeps its bytes. *)
let golden =
  [
    ("trace-percpu", "9c64a29436da6fcec0dc0f6163d2b289");
    ("trace-centralized", "7ae239f7c2907203de2248aee7d70bf1");
    ("trace-hybrid", "d0d03b164a30aa1e8594db8b407306cd");
    (* all tasks pinned to core 0: steal-half grabs, failed scans and the
       park/unpark path are all on the golden path *)
    ("trace-worksteal", "dbf58cf4269bd6c204ba29aaa0f8a2f3");
    ("fault-sweep-centralized", "68465e416532f1c4e86396a3ade56a41");
    ("fault-sweep-percpu", "c75bbf972b642cb524545d99ab748a19");
    ("fault-sweep-hybrid", "5df7e275881371c38e2b6e33e3f41b60");
    ("fault-sweep-worksteal", "9bca178607b09f7fa55e4ee781be4b7d");
    ("obs-report-centralized", "2b8295ae9d0b0b633242042411c74f0c");
    ("obs-report-percpu", "15d4959e4628708894c4151cdb1e7e1b");
    ("obs-report-hybrid", "2b8295ae9d0b0b633242042411c74f0c");
    ("obs-report-worksteal", "460d391d28a7b1fcb47f0bbc666b117c");
    (* machine-level obs point: brokered 4-tenant fleet (one tenant per
       runtime), shared flight recorder, all three tenant faults — trace
       JSON + placement digest *)
    ("obs-machine", "16778479fd535f28816d48e49f90be9e");
    (* scenario-DSL cells: 30k requests through the scale compile path *)
    ("scale-steady-pareto-percpu", "66ec7116948f66804d148c3a56384aee");
    ("scale-steady-pareto-centralized", "0fe7a85605c82f6d8c68d13b820622e9");
    ("scale-steady-pareto-hybrid", "79733c6e39acec77d7404c6a98921ea8");
    ("scale-steady-pareto-worksteal", "8539def246537560ede6cd76d71fff8c");
    ("scale-bursty-mmpp-percpu", "4d28fb5d5f10df68de534bf4b0006bce");
    ("scale-bursty-mmpp-centralized", "bca46aad79898bf490b75091ba8a3dcc");
    ("scale-bursty-mmpp-hybrid", "4d05f92172daf794a9cae5bac99b7a82");
    ("scale-bursty-mmpp-worksteal", "d20f617894d1f0776e37e8c3a3630cc1");
    ("scale-tenant-mix-percpu", "01ed0d8859ff0e93b234804194346192");
    ("scale-tenant-mix-centralized", "2bf6238e0d5777cc0a9883bdaf7a50e7");
    ("scale-tenant-mix-hybrid", "73d3dfbb760010794372732c471ab1d4");
    ("scale-tenant-mix-worksteal", "226bbfa081ae3183297d67a096dc76a0");
    (* oversub cells: a 4-tenant mixed-runtime placement under the core
       broker, fault-free / hoarding / crashing tenant 0 *)
    ("oversub-none", "4fb3504f19b2857ce769c63bc644109a");
    ("oversub-hoard", "cd6f734caa0563036d19da85e22e6c2a");
    ("oversub-crash", "e7f42711ea32e5c4ec65fd2e0c87a8f0");
    (* fair-class cells: the schbench wakeup histogram (count, mean, min,
       max, every 0.1% quantile) of each fig5 system at 32 and 64 workers
       and of fig6's Skyloft-FIFO at 64, plus every field of fig7's
       Linux-CFS point with nice-19 batch hogs *)
    ("fig5-Linux-RR-32", "1f0bbb2bbf541ccdf3dd5fe8402922c5");
    ("fig5-Linux-RR-64", "c7c61e0fc3ecf3b5c0b38956319514ff");
    ("fig5-Linux-CFS-32", "0e2b84a9a5f1a204715374862a10a9cb");
    ("fig5-Linux-CFS-64", "ef5cd12b4efb7adc748785a920032230");
    ("fig5-Linux-CFS-tuned-32", "19e4983f89becc56fbfa8e661aa1508e");
    ("fig5-Linux-CFS-tuned-64", "a67719062bd59e15fbd357163c4401c8");
    ("fig5-Linux-EEVDF-32", "33e4cc49879fd4160fe59ce2b5d205da");
    ("fig5-Linux-EEVDF-64", "79dba976876a322eb7dcb7c827ccf02c");
    ("fig5-Linux-EEVDF-tuned-32", "344cdfb41fd925022d098a5356aa954d");
    ("fig5-Linux-EEVDF-tuned-64", "4d81e6f2bc2c4e56a31e1fd0770f25b7");
    ("fig5-Skyloft-RR-32", "3bfc1fc39eece4b500b1eb092f9aa762");
    ("fig5-Skyloft-RR-64", "f3caf0b73d5a73777f434a4a75e74628");
    ("fig5-Skyloft-CFS-32", "482b82e0642441484937985f60ac54f8");
    ("fig5-Skyloft-CFS-64", "8577b56b2cc529956e43ced0ccdb4e5c");
    ("fig5-Skyloft-EEVDF-32", "386a91095ca660933ad1fa7f34e7dc14");
    ("fig5-Skyloft-EEVDF-64", "dd4c103f3135d7e194c1aa3c7409ea15");
    ("fig6-fifo-64", "34c0de627fb0146f3992faeded540a57");
    ("fig7-linux-be", "46bbb629602bef9cb5631b1d7bd4604a");
  ]

let check_golden got =
  check int "every golden entry computed" (List.length golden) (List.length got);
  List.iter
    (fun (name, expected) ->
      match List.assoc_opt name got with
      | Some actual -> check string name expected actual
      | None -> fail (Printf.sprintf "missing golden entry %s" name))
    golden

let test_golden_fingerprints () = check_golden (E.Golden.fingerprints ())

(* The same goldens computed with the cells fanned across 4 domains: the
   parallel driver must be invisible in the results, byte for byte. *)
let test_golden_fingerprints_parallel () =
  check_golden (E.Golden.fingerprints ~jobs:4 ())

let suite =
  [
    test_case "trace bytes reproduce under faults" `Quick test_trace_byte_identical;
    test_case "hybrid trace reproduces across both modes" `Quick
      test_hybrid_trace_byte_identical;
    test_case "worksteal trace reproduces across steals and parks" `Quick
      test_worksteal_trace_byte_identical;
    test_case "sweep point reproduces" `Slow test_sweep_point_reproducible;
    test_case "fault-free sweep reproduces" `Quick test_sweep_fault_free_reproducible;
    test_case "metrics registry is transparent" `Quick test_obs_registry_transparent;
    test_case "golden fingerprints match the committed values" `Slow
      test_golden_fingerprints;
    test_case "golden fingerprints identical at -j 4" `Slow
      test_golden_fingerprints_parallel;
  ]
