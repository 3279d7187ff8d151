module Trace = Skyloft_stats.Trace
module Trace_analysis = Skyloft_obs.Trace_analysis

(** [skyloft_run trace-dump FILE]: decoder for flight-recorder binary
    images ({!Trace.to_binary} output — e.g. the
    [obs_trace_machine.bin] the obs-report experiment writes).

    Prints the image header (retained/dropped/interned counts), a
    per-kind census of the records, then the decoded event lines —
    and re-runs both invariant checkers over the decoded ring, so the
    dump doubles as an offline verifier: a corrupt or ill-formed image
    exits nonzero.  [--limit] bounds the event lines (0 = all). *)

let fail fmt = Printf.ksprintf failwith fmt

(* All 22 kinds, in wire order, so the census is exhaustive and stable. *)
let all_kinds =
  [
    Trace.Preempt; Trace.Wakeup; Trace.App_switch; Trace.Timer_tick;
    Trace.Fault; Trace.Core_grant; Trace.Core_reclaim; Trace.Inject;
    Trace.Watchdog_rescue; Trace.Failover; Trace.Deadline_drop;
    Trace.Alloc_degrade; Trace.Alloc_recover; Trace.Mode_switch;
    Trace.Broker_grant; Trace.Broker_reclaim; Trace.Broker_yield;
    Trace.Tenant_degrade; Trace.Tenant_recover; Trace.Quarantine;
    Trace.Release; Trace.Tenant_crash;
  ]

let census trace =
  let spans = ref 0 in
  let tbl = Hashtbl.create 32 in
  Trace.iter trace (fun ev ->
      match ev with
      | Trace.Span _ -> incr spans
      | Trace.Instant { kind; _ } ->
          let r =
            match Hashtbl.find_opt tbl kind with
            | Some r -> r
            | None ->
                let r = ref 0 in
                Hashtbl.replace tbl kind r;
                r
          in
          incr r);
  ( !spans,
    List.filter_map
      (fun k ->
        match Hashtbl.find_opt tbl k with
        | Some r when !r > 0 -> Some (k, !r)
        | _ -> None)
      all_kinds )

let dump ~path ~limit =
  let trace =
    try Trace.read_binary ~path
    with
    | Sys_error e -> fail "trace-dump: %s" e
    | Invalid_argument e -> fail "trace-dump: %s" e
  in
  Printf.printf "flight recorder image: %s\n" path;
  Printf.printf "  retained  %d events\n" (Trace.events trace);
  Printf.printf "  dropped   %d events (ring overflow at record time)\n"
    (Trace.dropped trace);
  Printf.printf "  interned  %d names\n" (Trace.interned trace);
  let spans, instants = census trace in
  Printf.printf "  spans     %d\n" spans;
  List.iter
    (fun (k, n) -> Printf.printf "  %-14s %d\n" (Trace.kind_name k) n)
    instants;
  let structural = Trace_analysis.check trace in
  let machine = Trace_analysis.check_machine trace in
  Printf.printf "invariants: %d structural, %d machine-level violations\n"
    (List.length structural) (List.length machine);
  List.iter
    (fun v ->
      Printf.printf "  VIOLATION %s\n"
        (Format.asprintf "%a" Trace_analysis.pp_violation v))
    (structural @ machine);
  let shown = ref 0 in
  (try
     Trace.iter trace (fun ev ->
         if limit > 0 && !shown >= limit then raise Exit;
         incr shown;
         print_endline (Trace.event_to_string ev))
   with Exit -> ());
  if limit > 0 && Trace.events trace > limit then
    Printf.printf "... (%d more; --limit 0 shows all)\n"
      (Trace.events trace - limit);
  if structural <> [] || machine <> [] then
    fail "trace-dump: %d invariant violations in %s"
      (List.length structural + List.length machine)
      path;
  trace
