module Engine = Skyloft_sim.Engine
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Costs = Skyloft_hw.Costs
module Kmod = Skyloft_kernel.Kmod

(** The paper's tables: 4 (scheduler LoC), 5 (parameters), 6 (preemption
    mechanisms), 7 (threading operations), and the §5.4 inter-application
    switch microbenchmark. *)

(* ---- Table 4: lines of code per scheduler ---- *)

let policy_files =
  [
    ("Skyloft Round-Robin", "lib/policies/rr.ml");
    ("Skyloft CFS", "lib/policies/cfs.ml");
    ("Skyloft EEVDF", "lib/policies/eevdf.ml");
    ("Skyloft Shinjuku", "lib/policies/shinjuku.ml");
    ("Skyloft Shinjuku-Shenango", "lib/policies/shinjuku_shenango.ml");
    ("Skyloft Work-Stealing", "lib/policies/work_stealing.ml");
    ("Skyloft FIFO", "lib/policies/fifo.ml");
  ]

(* The framework the policies run on: the shared substrate, the shared
   per-core path, the two dispatch mechanisms built from them, and the
   one core arbiter with the broker's machine-level rules on top. *)
let framework_files =
  [
    ("Runtime_core (shared substrate)", "lib/core/runtime_core.ml");
    ("Percore (shared per-core path)", "lib/core/percore.ml");
    ("Percpu (per-CPU mechanism)", "lib/core/percpu.ml");
    ("Hybrid (dispatcher + mode switch)", "lib/core/hybrid.ml");
    ("Allocator (core arbiter + allocator rules)", "lib/alloc/allocator.ml");
    ("Broker (machine-level tenant rules)", "lib/alloc/broker.ml");
  ]

let paper_loc =
  [
    ("Linux CFS (kernel/sched/fair.c)", 6_592);
    ("Linux RT (kernel/sched/rt.c)", 1_939);
    ("Linux EEVDF (v6.8 fair.c)", 7_102);
    ("ghOSt Shinjuku", 710);
    ("ghOSt Shinjuku-Shenango", 727);
    ("Skyloft Round-Robin", 141);
    ("Skyloft CFS", 430);
    ("Skyloft EEVDF", 579);
    ("Skyloft Shinjuku", 192);
    ("Skyloft Shinjuku-Shenango", 444);
    ("Skyloft Work-Stealing (Preemptive)", 150);
  ]

(* Resolve a repo-relative path from wherever the binary runs (project
   root for dune exec, _build/default/... for dune runtest). *)
let resolve path =
  let candidates =
    [ path; "../" ^ path; "../../" ^ path; "../../../" ^ path; "../../../../" ^ path ]
  in
  List.find_opt Sys.file_exists candidates

(* Count non-blank, non-comment lines, roughly what cloc would report. *)
let count_loc path =
  match resolve path with
  | None -> None
  | Some path ->
    let ic = open_in path in
    let count = ref 0 and in_comment = ref 0 in
    (try
       while true do
         let line = String.trim (input_line ic) in
         let opens = ref 0 and closes = ref 0 in
         String.iteri
           (fun i c ->
             if c = '(' && i + 1 < String.length line && line.[i + 1] = '*' then incr opens;
             if c = '*' && i + 1 < String.length line && line.[i + 1] = ')' then incr closes)
           line;
         let starts_in_comment = !in_comment > 0 in
         in_comment := max 0 (!in_comment + !opens - !closes);
         if
           line <> ""
           && (not starts_in_comment)
           && not (String.length line >= 2 && String.sub line 0 2 = "(*")
         then incr count
       done
     with End_of_file -> ());
    close_in ic;
    Some !count

let print_table4 () =
  Report.section "Table 4: lines of code per scheduler";
  let loc_rows files =
    List.map
      (fun (name, path) ->
        let loc = match count_loc path with Some n -> string_of_int n | None -> "n/a" in
        [ name; loc; path ])
      files
  in
  let rows = loc_rows policy_files in
  Report.table ~header:[ "scheduler (this repo)"; "LoC"; "file" ] rows;
  Report.subsection "the framework under every policy";
  let framework = loc_rows framework_files in
  Report.table ~header:[ "framework (this repo)"; "LoC"; "file" ] framework;
  Report.subsection "paper's Table 4 for comparison";
  Report.table
    ~header:[ "scheduler (paper)"; "LoC" ]
    (List.map (fun (n, l) -> [ n; string_of_int l ]) paper_loc);
  Report.note
    "the claim is the ratio: Skyloft policies are a few hundred lines where kernel";
  Report.note "schedulers are thousands";
  rows @ framework

(* ---- Table 5: scheduler parameters ---- *)

let print_table5 () =
  Report.section "Table 5: scheduling-policy parameters";
  Report.table
    ~header:[ "policy"; "timer hz"; "min_gran/base_slice"; "time_slice/sched_latency" ]
    [
      [ "Linux RR (default)"; "250"; "-"; "100ms" ];
      [ "Linux CFS (default)"; "250"; "3ms"; "24ms" ];
      [ "Linux CFS (tuned)"; "1,000"; "12.5us"; "50us" ];
      [ "Linux EEVDF (default)"; "1,000"; "3ms"; "-" ];
      [ "Linux EEVDF (tuned)"; "1,000"; "12.5us"; "-" ];
      [ "Skyloft RR"; "100,000"; "-"; "50us" ];
      [ "Skyloft CFS"; "100,000"; "12.5us"; "50us" ];
      [ "Skyloft EEVDF"; "100,000"; "12.5us"; "-" ];
    ];
  Report.note "Linux caps CONFIG_HZ at 1000; Skyloft's user-space timer runs at 100 kHz"

(* ---- Table 6: preemption mechanisms ---- *)

let print_table6 () =
  Report.section "Table 6: preemption mechanism comparison (cycles)";
  let rows =
    List.map2
      (fun (m : Costs.mechanism) (_, psend, precv, pdeliv) ->
        [
          m.name;
          Report.opt_cycles m.send;
          Report.cycles m.receive;
          Report.opt_cycles m.delivery;
          Report.opt_cycles psend;
          Report.cycles precv;
          Report.opt_cycles pdeliv;
        ])
      Costs.table6 Costs.paper_table6
  in
  Report.table
    ~header:
      [ "mechanism"; "send"; "receive"; "delivery"; "paper:send"; "recv"; "deliv" ]
    rows;
  Report.note "model columns are composed from named micro-costs (lib/hw/costs.ml);";
  Report.note "senduipi with SN set (handler re-arm): %d cycles (paper: ~123)"
    Costs.senduipi_sn;
  rows

(* ---- Table 7: threading operations (model columns) ----
   The measured Skyloft column comes from the Bechamel benchmarks in
   bench/main.ml; here we print the paper's numbers plus our cost-model
   values used by the simulation. *)

let print_table7_model () =
  Report.section "Table 7: threading operation comparison (ns) — paper / simulation model";
  let ops = [ "Yield"; "Spawn"; "Mutex"; "Condvar" ] in
  let col l op = List.assoc op l in
  let rows =
    List.map
      (fun op ->
        [
          op;
          string_of_int (col Costs.pthread_ops_ns op);
          string_of_int (col Costs.go_ops_ns op);
          string_of_int (col Costs.skyloft_ops_ns op);
        ])
      ops
  in
  Report.table ~header:[ "operation"; "pthread"; "Go"; "Skyloft" ] rows;
  Report.note "real measurements of this repo's effects-based uthreads are in the";
  Report.note "bench output (Bechamel), reproducing the shape: user-level ops are";
  Report.note "orders of magnitude cheaper than kernel threads";
  rows

(* ---- §5.4: thread switching across applications ---- *)

let print_appswitch () =
  Report.section "§5.4 microbenchmark: inter-application switch cost";
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:4) in
  let kmod = Kmod.create machine in
  let a = Kmod.park_on_cpu kmod ~app:1 ~core:0 in
  let b = Kmod.park_on_cpu kmod ~app:2 ~core:0 in
  ignore (Kmod.activate kmod a);
  let cost = Kmod.switch_to kmod ~from:a ~target:b in
  Report.table
    ~header:[ "operation"; "model (ns)"; "paper (ns)" ]
    [
      [ "Skyloft inter-application switch"; Report.ns cost; "1,905" ];
      [ "Linux switch (both runnable)"; Report.ns Costs.linux_ctx_switch_ns; "1,124" ];
      [ "Linux switch (with wakeup)"; Report.ns Costs.linux_wakeup_switch_ns; "2,471" ];
      [ "Skyloft same-app switch"; Report.ns Costs.uthread_yield_ns; "37" ];
    ]
