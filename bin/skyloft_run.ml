(* skyloft_run: command-line front end for the reproduction experiments.

   Examples:
     skyloft_run fig5               # schbench comparison (Figure 5)
     skyloft_run fig8b --full      # RocksDB sweep at 1s per point
     skyloft_run table6            # preemption mechanism costs
     skyloft_run all --quick       # everything, fast *)

open Cmdliner
module E = Skyloft_experiments
module Time = Skyloft_sim.Time

(* A count that must be at least 1: a zero or negative --duration-ms or
   --requests is a usage error, not a run. *)
let positive =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let config_term =
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Short runs (80 ms per data point).")
  in
  let full =
    Arg.(value & flag & info [ "full" ] ~doc:"Long runs (1 s per data point).")
  in
  let duration_ms =
    Arg.(
      value
      & opt (some positive) None
      & info [ "duration-ms" ] ~docv:"MS" ~doc:"Simulated milliseconds per data point.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")
  in
  let jobs =
    Arg.(
      value
      & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Run sweep cells across $(docv) domains.  Results are \
             byte-identical at any value: every data point is an \
             independent fixed-seed simulation, so parallelism only \
             changes wall-clock time.")
  in
  let requests =
    Arg.(
      value
      & opt (some positive) None
      & info [ "requests" ] ~docv:"N"
          ~doc:
            "Requests per cell for request-driven experiments (scale).  \
             Overrides the quick/default/full tier (150k/1M/10M).")
  in
  let build quick full duration_ms seed jobs requests =
    let base =
      if quick then E.Config.quick else if full then E.Config.full else E.Config.default
    in
    let duration =
      match duration_ms with Some ms -> Time.ms ms | None -> base.E.Config.duration
    in
    { E.Config.duration; seed; jobs = max 1 jobs; requests }
  in
  Term.(const build $ quick $ full $ duration_ms $ seed $ jobs $ requests)

let experiments : (string * string * (E.Config.t -> unit)) list =
  [
    ("fig5", "schbench wakeup latency across schedulers", E.Fig5.print);
    ("fig6", "schbench wakeup latency vs RR time slice", E.Fig6.print);
    ("fig7a", "dispersive workload tail latency", E.Fig7.print_a);
    ( "fig7b",
      "dispersive workload co-located with a batch application",
      fun c -> ignore (E.Fig7.print_b c) );
    ("fig7c", "CPU share of the batch application", E.Fig7.print_c);
    ( "colocate-alloc",
      "core-allocation policy comparison (Static/Utilization/Delay)",
      E.Colocate_alloc.print );
    ( "fault-sweep",
      "fault-rate sweep: p99 + recovery accounting under injected faults",
      E.Fault_sweep.print );
    ( "obs-report",
      "unified observability report: latency attribution + trace analysis",
      E.Obs_report.print );
    ("fig8a", "Memcached under the USR workload", E.Fig8.print_a);
    ("fig8b", "RocksDB under the bimodal workload", E.Fig8.print_b);
    ("table4", "scheduler lines of code", fun _ -> ignore (E.Tables.print_table4 ()));
    ("table5", "scheduling-policy parameters", fun _ -> E.Tables.print_table5 ());
    ("table6", "preemption mechanism costs", fun _ -> ignore (E.Tables.print_table6 ()));
    ( "table7",
      "threading operation costs (model; examples/uthreads_demo measures)",
      fun _ -> ignore (E.Tables.print_table7_model ()) );
    ("appswitch", "inter-application switch cost", fun _ -> E.Tables.print_appswitch ());
    ("ablations", "design-choice ablations (tick tax, 2a-vs-2b, dispatcher scaling, NIC modes, hybrid)",
     E.Ablations.print);
    ( "hybrid",
      "hybrid runtime vs both parents (ablation A5 only)",
      E.Ablations.a5_hybrid_vs_parents );
    ( "worksteal",
      "work-stealing runtime vs the other three across arrival regimes \
       (ablation A6 only)",
      E.Ablations.a6_worksteal_regimes );
    ( "scale",
      "scenario DSL x runtime sweep at millions of requests per cell",
      E.Scale.print );
    ( "oversub",
      "oversubscribed machine: multi-runtime tenant sweep under the core broker",
      E.Oversub.print );
    ( "golden",
      "print the determinism golden fingerprints (fixed seeds)",
      E.Golden.print );
  ]

(* Entries whose whole output another entry already prints: fig7c
   prints the fig7b table before its own, and ablations prints A5 and
   A6.  [all] runs each sweep once. *)
let printed_by_another = [ "fig7b"; "hybrid"; "worksteal" ]

let all_cmd config =
  List.iter
    (fun (name, _, run) -> if not (List.mem name printed_by_another) then run config)
    experiments

let cmd_of (name, doc, run) =
  Cmd.v (Cmd.info name ~doc) Term.(const run $ config_term)

(* trace-dump takes a file, not a Config: decode a flight-recorder binary
   image (e.g. the obs_trace_machine.bin obs-report writes), print the
   census and event lines, and re-verify the trace invariants offline. *)
let trace_dump_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"Flight-recorder binary image (Trace.to_binary output).")
  in
  let limit =
    Arg.(
      value
      & opt int 40
      & info [ "limit" ] ~docv:"N"
          ~doc:"Print at most $(docv) event lines (0 = all).")
  in
  let run path limit = E.Trace_dump.dump ~path ~limit in
  Cmd.v
    (Cmd.info "trace-dump"
       ~doc:"Decode and verify a flight-recorder binary trace image")
    Term.(const run $ path $ limit)

let () =
  let default = Term.(const all_cmd $ config_term) in
  let info =
    Cmd.info "skyloft_run" ~version:"1.0"
      ~doc:"Reproduce the Skyloft (SOSP '24) evaluation tables and figures"
  in
  let cmds =
    List.map cmd_of experiments
    @ [ Cmd.v (Cmd.info "all" ~doc:"Run every experiment") default;
        trace_dump_cmd ]
  in
  exit (Cmd.eval (Cmd.group ~default info cmds))
