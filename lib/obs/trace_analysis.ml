module Time = Skyloft_sim.Time
module Trace = Skyloft_stats.Trace
module Timeseries = Skyloft_stats.Timeseries

type core_report = {
  core : int;
  busy_ns : int;
  idle_ns : int;
  spans : int;
  instants : int;
  per_app : (int * int) list;
}

type per_core = {
  mutable c_busy : int;
  mutable c_spans : int;
  mutable c_instants : int;
  c_apps : (int, int ref) Hashtbl.t;
}

let get_core tbl core =
  match Hashtbl.find_opt tbl core with
  | Some pc -> pc
  | None ->
      let pc = { c_busy = 0; c_spans = 0; c_instants = 0; c_apps = Hashtbl.create 4 } in
      Hashtbl.replace tbl core pc;
      pc

let utilization trace ~until =
  let tbl = Hashtbl.create 16 in
  Trace.iter trace (fun ev ->
      match ev with
      | Trace.Span { core; app; start; stop; _ } ->
          let pc = get_core tbl core in
          let dur = stop - start in
          pc.c_busy <- pc.c_busy + dur;
          pc.c_spans <- pc.c_spans + 1;
          let cell =
            match Hashtbl.find_opt pc.c_apps app with
            | Some r -> r
            | None ->
                let r = ref 0 in
                Hashtbl.replace pc.c_apps app r;
                r
          in
          cell := !cell + dur
      | Trace.Instant { core; _ } ->
          let pc = get_core tbl core in
          pc.c_instants <- pc.c_instants + 1);
  Hashtbl.fold
    (fun core pc acc ->
      let per_app =
        Hashtbl.fold (fun app busy acc -> (app, !busy) :: acc) pc.c_apps []
        |> List.sort compare
      in
      {
        core;
        busy_ns = pc.c_busy;
        idle_ns = max 0 (until - pc.c_busy);
        spans = pc.c_spans;
        instants = pc.c_instants;
        per_app;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b -> compare a.core b.core)

let busy_share r =
  let window = r.busy_ns + r.idle_ns in
  if window = 0 then 0.0 else float_of_int r.busy_ns /. float_of_int window

(* ---- invariant checking --------------------------------------------------- *)

type violation = { core : int; at : Time.t; what : string }

let pp_violation ppf v =
  Format.fprintf ppf "core %d @@ %d ns: %s" v.core v.at v.what

let emission_time = function
  | Trace.Span { stop; _ } -> stop
  | Trace.Instant { at; _ } -> at

let check trace =
  let violations = ref [] in
  let add core at what = violations := { core; at; what } :: !violations in
  (* 1. Timestamps nondecreasing in emission order. *)
  let prev = ref min_int in
  Trace.iter trace (fun ev ->
      let t = emission_time ev in
      if t < !prev then
        add
          (match ev with Trace.Span { core; _ } | Trace.Instant { core; _ } -> core)
          t
          (Printf.sprintf "timestamp went backwards (%d after %d)" t !prev);
      prev := t);
  (* Collect spans and preempt instants per core. *)
  let spans = Hashtbl.create 16 and preempts = Hashtbl.create 16 in
  let push tbl core v =
    let l = match Hashtbl.find_opt tbl core with Some l -> l | None -> [] in
    Hashtbl.replace tbl core (v :: l)
  in
  Trace.iter trace (fun ev ->
      match ev with
      | Trace.Span { core; start; stop; _ } -> push spans core (start, stop)
      | Trace.Instant { core; at; kind = Trace.Preempt; _ } -> push preempts core at
      | Trace.Instant _ -> ());
  (* 2. No overlapping spans on one core. *)
  Hashtbl.iter
    (fun core l ->
      let sorted = List.sort compare l in
      ignore
        (List.fold_left
           (fun prev_stop (start, stop) ->
             (match prev_stop with
             | Some p when start < p ->
                 add core start
                   (Printf.sprintf "span starting at %d overlaps previous span ending at %d"
                      start p)
             | _ -> ());
             Some (max (Option.value prev_stop ~default:min_int) stop))
           None sorted))
    spans;
  (* 3. Every Preempt instant inside some span on its core (inclusive:
     delivery lands exactly at the victim span's stop).  Undecidable on a
     truncated ring — the covering span may be among the dropped events. *)
  if Trace.dropped trace = 0 then
    Hashtbl.iter
      (fun core l ->
        let core_spans = match Hashtbl.find_opt spans core with Some s -> s | None -> [] in
        List.iter
          (fun at ->
            let covered =
              List.exists (fun (start, stop) -> start <= at && at <= stop) core_spans
            in
            if not covered then
              add core at "preempt instant outside every span on its core")
          l)
      preempts;
  List.rev !violations

(* ---- machine-level invariants ---------------------------------------------- *)

(* Per-tenant health automaton replayed from the broker's instants, keyed
   by tenant name (the instant payload the broker emits). *)
type tenant_state = {
  mutable quarantined : bool;
  mutable degraded : bool;
  mutable crashed : bool;
}

let check_machine trace =
  let violations = ref [] in
  let add core at what = violations := { core; at; what } :: !violations in
  let tenants = Hashtbl.create 8 in
  let state name =
    match Hashtbl.find_opt tenants name with
    | Some s -> s
    | None ->
        let s = { quarantined = false; degraded = false; crashed = false } in
        Hashtbl.replace tenants name s;
        s
  in
  (* Undecidable on a truncated ring: the opening edge of any pair may be
     among the dropped events. *)
  if Trace.dropped trace = 0 then
    Trace.iter trace (fun ev ->
        match ev with
        | Trace.Span _ -> ()
        | Trace.Instant { core; at; kind; name } -> (
            let machine_kind =
              match kind with
              | Trace.Broker_grant | Trace.Broker_reclaim | Trace.Broker_yield
              | Trace.Tenant_degrade | Trace.Tenant_recover | Trace.Quarantine
              | Trace.Release | Trace.Tenant_crash ->
                  true
              | _ -> false
            in
            if machine_kind then begin
              let s = state name in
              if s.crashed then
                add core at
                  (Printf.sprintf "tenant %s: %s after crash" name
                     (Trace.kind_name kind));
              match kind with
              | Trace.Quarantine ->
                  if s.quarantined then
                    add core at
                      (Printf.sprintf "tenant %s: quarantined twice without release"
                         name);
                  s.quarantined <- true
              | Trace.Release ->
                  if not s.quarantined then
                    add core at
                      (Printf.sprintf "tenant %s: release without quarantine" name);
                  s.quarantined <- false
              | Trace.Tenant_degrade ->
                  if s.degraded then
                    add core at
                      (Printf.sprintf "tenant %s: degraded twice without recover"
                         name);
                  s.degraded <- true
              | Trace.Tenant_recover ->
                  if not s.degraded then
                    add core at
                      (Printf.sprintf "tenant %s: recover without degrade" name);
                  s.degraded <- false
              | Trace.Tenant_crash -> s.crashed <- true
              | Trace.Broker_grant ->
                  (* Quarantined tenants hold no policy say; a grant while
                     clamped means the broker leaked cores past the clamp. *)
                  if s.quarantined then
                    add core at
                      (Printf.sprintf "tenant %s: grant while quarantined" name)
              | _ -> ()
            end));
  List.rev !violations

(* ---- Perfetto export with counter tracks ---------------------------------- *)

let us t = float_of_int t /. 1_000.0

let counter_json name (at, v) =
  Printf.sprintf {|{"name":"%s","ph":"C","ts":%.3f,"pid":0,"args":{"value":%d}}|}
    (Trace.escape name) (us at) v

let to_chrome_json ?(counters = []) trace =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[";
  Trace.iter trace (fun ev ->
      let s =
        match ev with
        | Trace.Span { core; app; name; start; stop } ->
            Printf.sprintf
              {|{"name":"%s","ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d}|}
              (Trace.escape name) (us start)
              (us (stop - start))
              app core
        | Trace.Instant { core; at; kind; name } ->
            Printf.sprintf
              {|{"name":"%s:%s","ph":"i","ts":%.3f,"pid":0,"tid":%d,"s":"t"}|}
              (Trace.kind_name kind) (Trace.escape name) (us at) core
      in
      Buffer.add_string buf s;
      Buffer.add_string buf ",\n");
  List.iter
    (fun (name, series) ->
      List.iter
        (fun sample ->
          Buffer.add_string buf (counter_json name sample);
          Buffer.add_string buf ",\n")
        (Timeseries.to_list series))
    counters;
  Buffer.add_string buf
    (Printf.sprintf
       {|{"name":"skyloft_dropped","ph":"M","pid":0,"tid":0,"args":{"dropped":%d,"retained":%d}}|}
       (Trace.dropped trace) (Trace.events trace));
  Buffer.add_string buf "]";
  Buffer.contents buf
