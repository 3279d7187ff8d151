module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Timeseries = Skyloft_stats.Timeseries

type bounds = { guaranteed : int; burstable : int }
type raw = { runq_len : int; oldest_delay : Time.t; busy_ns : int }
type health = Healthy | Stale | Quarantined | Crashed

type action =
  | Grant
  | Reclaim
  | Yield
  | Degrade
  | Recover
  | Quarantine
  | Release
  | Crash

type event = {
  at : Time.t;
  id : int;
  name : string;
  action : action;
  granted : int;
}

(* ---- the arbiter: one control loop for both levels ------------------------ *)

type 'x binding = {
  id : int;
  name : string;
  kind : Policy.kind;
  bounds : bounds;
  sample : unit -> raw;
  apply : granted:int -> delta:int -> Time.t;
  mutable granted : int;
  mutable last_busy_ns : int;
  mutable stale_ticks : int;  (* consecutive ticks with a frozen signal *)
  mutable health : health;
  mutable series : Timeseries.t;  (* [unwatched] until {!series} *)
  ext : 'x;  (* the level's own per-binding state *)
}

let id b = b.id
let name b = b.name
let bounds b = b.bounds
let sample b = b.sample ()
let grant b = b.granted
let stale_ticks b = b.stale_ticks
let health b = b.health
let ext b = b.ext

(* The [series] of every unwatched binding: compared physically and never
   recorded, so an unwatched transition costs one compare. *)
let unwatched = Timeseries.create ()

type ('r, 'x) arbiter = {
  who : string;  (* "Allocator" / "Broker": names errors *)
  member : string;  (* "app" / "tenant" *)
  engine : Engine.t;
  capacity : int;
  on_event : event -> unit;
  rules : 'r;
  decide : ('r, 'x) arbiter -> unit;  (* fills [decisions] *)
  mutable bindings : 'x binding array;  (* registration order — the
                                           iteration order everywhere *)
  mutable signals : Policy.signal array;  (* per binding, refilled each round *)
  mutable decisions : Policy.decision array;  (* per binding, this round's *)
  event_log : event Queue.t;
  mutable grants : int;
  mutable reclaims : int;
  mutable yields : int;
  mutable degradations : int;
  mutable quarantines : int;
  mutable releases : int;
  mutable crashes : int;
  mutable ticks : int;
  mutable charged_ns : Time.t;
  mutable running : bool;
}

let event_log_cap = 4096
let interval = Time.us 5

let arbiter ~who ~member ~engine ~capacity ~on_event ~rules ~decide =
  if capacity <= 0 then invalid_arg (who ^ ".create: capacity must be positive");
  {
    who;
    member;
    engine;
    capacity;
    on_event;
    rules;
    decide;
    bindings = [||];
    signals = [||];
    decisions = [||];
    event_log = Queue.create ();
    grants = 0;
    reclaims = 0;
    yields = 0;
    degradations = 0;
    quarantines = 0;
    releases = 0;
    crashes = 0;
    ticks = 0;
    charged_ns = 0;
    running = false;
  }

let now t = Engine.now t.engine
let rules t = t.rules
let bindings t = t.bindings
let signals t = t.signals
let decisions t = t.decisions

let sum_granted t =
  let sum = ref 0 in
  for i = 0 to Array.length t.bindings - 1 do
    sum := !sum + t.bindings.(i).granted
  done;
  !sum

let free_cores t = t.capacity - sum_granted t

let find t id =
  match Array.find_opt (fun b -> b.id = id) t.bindings with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "%s: unregistered %s %d" t.who t.member id)

let bind t ~id ~name ~kind ~bounds ~initial ~sample ~apply ext =
  let fail msg = invalid_arg (t.who ^ ".register: " ^ msg) in
  if Array.exists (fun b -> b.id = id) t.bindings then
    fail (t.member ^ " already registered");
  if bounds.guaranteed < 0 || bounds.guaranteed > bounds.burstable then
    fail "need 0 <= guaranteed <= burstable";
  if bounds.burstable > t.capacity then fail "burstable exceeds the core pool";
  if initial < bounds.guaranteed || initial > bounds.burstable then
    fail "initial grant outside bounds";
  if initial > free_cores t then fail "initial grants exceed the core pool";
  let b =
    {
      id;
      name;
      kind;
      bounds;
      sample;
      apply;
      granted = initial;
      last_busy_ns = (sample ()).busy_ns;
      stale_ticks = 0;
      health = Healthy;
      series = unwatched;
      ext;
    }
  in
  let signal =
    { Policy.kind; cores = 0; runq_len = 0; oldest_delay = 0; busy_ns = 0; window_ns = 1 }
  in
  t.bindings <- Array.append t.bindings [| b |];
  t.signals <- Array.append t.signals [| signal |];
  t.decisions <- Array.append t.decisions [| Policy.Hold |]

let set_health (b : _ binding) h = b.health <- h

(* Every event goes through here: the counters are tallied off the event
   stream, so each one moves exactly when its event is logged. *)
let log t ev =
  (match ev.action with
  | Grant -> t.grants <- t.grants + 1
  | Reclaim -> t.reclaims <- t.reclaims + 1
  | Yield -> t.yields <- t.yields + 1
  | Degrade -> t.degradations <- t.degradations + 1
  | Quarantine -> t.quarantines <- t.quarantines + 1
  | Release -> t.releases <- t.releases + 1
  | Crash -> t.crashes <- t.crashes + 1
  | Recover -> ());
  if Queue.length t.event_log >= event_log_cap then ignore (Queue.pop t.event_log);
  Queue.push ev t.event_log;
  t.on_event ev

(* A health or mode edge: moves no cores. *)
let emit t b ~action =
  log t { at = now t; id = b.id; name = b.name; action; granted = b.granted }

(* Apply one accepted core movement: adjust the grant, inform the owner
   through [apply], charge the switch cost it reports, record the series
   once it is watched, log the event. *)
let transition t b ~action ~delta =
  if delta <> 0 then begin
    b.granted <- b.granted + delta;
    t.charged_ns <- t.charged_ns + b.apply ~granted:b.granted ~delta;
    if b.series != unwatched then Timeseries.record b.series ~at:(now t) b.granted;
    emit t b ~action
  end

let signal_of t i (r : raw) =
  let b = t.bindings.(i) in
  let busy = Int.max 0 (r.busy_ns - b.last_busy_ns) in
  b.last_busy_ns <- r.busy_ns;
  (* Staleness: cores granted and work queued, yet zero progress — the
     congestion signal is frozen (stuck tasks, stolen cores, lost ticks,
     a tenant that stopped reporting) and adaptive policies would act on
     fiction.  A binding already stale stays stale while frozen even at
     zero cores, so a zero-guarantee tenant cannot oscillate. *)
  let frozen = busy = 0 && r.runq_len > 0 in
  if frozen && (b.granted > 0 || b.health = Stale) then
    b.stale_ticks <- b.stale_ticks + 1
  else b.stale_ticks <- 0;
  let s = t.signals.(i) in
  s.cores <- b.granted;
  s.runq_len <- r.runq_len;
  s.oldest_delay <- r.oldest_delay;
  s.busy_ns <- busy;
  s.window_ns <- interval * Int.max 1 b.granted;
  s

exception Invariant_violation of string

let violation fmt = Printf.ksprintf (fun s -> raise (Invariant_violation s)) fmt

(* Runs after every tick: one walk that also sums the grants, so the
   check allocates nothing. *)
let check_invariants t =
  let sum = ref 0 in
  for i = 0 to Array.length t.bindings - 1 do
    let b = t.bindings.(i) in
    if b.health <> Crashed && b.granted < b.bounds.guaranteed then
      violation "%s: %s %s below its floor (%d < %d)" t.who t.member b.name
        b.granted b.bounds.guaranteed;
    if b.granted > b.bounds.burstable then
      violation "%s: %s %s above burstable (%d > %d)" t.who t.member b.name
        b.granted b.bounds.burstable;
    sum := !sum + b.granted
  done;
  if !sum > t.capacity then
    violation "%s: %d cores granted, pool has %d" t.who !sum t.capacity

(* The three arbitration phases over the round's decisions, each one walk
   in registration order. *)
let arbitrate t =
  let n = Array.length t.bindings in
  let free = ref (free_cores t) in
  (* 1. voluntary yields refill the pool (never below the guaranteed floor) *)
  for i = 0 to n - 1 do
    let b = t.bindings.(i) in
    match t.decisions.(i) with
    | Policy.Yield y ->
        let y = Int.min y (b.granted - b.bounds.guaranteed) in
        if y > 0 then begin
          transition t b ~action:Yield ~delta:(-y);
          free := !free + y
        end
    | Policy.Grant _ | Policy.Hold -> ()
  done;
  (* 2. LC grants: free pool first, then steal from healthy BE bindings
     above their guaranteed floor *)
  for i = 0 to n - 1 do
    let b = t.bindings.(i) in
    match (b.kind, t.decisions.(i)) with
    | Policy.Lc, Policy.Grant g ->
        let want = ref (Int.min g (b.bounds.burstable - b.granted)) in
        let from_free = Int.min !want !free in
        if from_free > 0 then begin
          free := !free - from_free;
          want := !want - from_free;
          transition t b ~action:Grant ~delta:from_free
        end;
        for j = 0 to n - 1 do
          let donor = t.bindings.(j) in
          if !want > 0 && donor.kind = Policy.Be && donor.health = Healthy then begin
            let steal = Int.min !want (donor.granted - donor.bounds.guaranteed) in
            if steal > 0 then begin
              transition t donor ~action:Reclaim ~delta:(-steal);
              transition t b ~action:Grant ~delta:steal;
              want := !want - steal
            end
          end
        done
    | _ -> ()
  done;
  (* 3. BE grants: whatever the pool still holds *)
  for i = 0 to n - 1 do
    let b = t.bindings.(i) in
    match (b.kind, t.decisions.(i)) with
    | Policy.Be, Policy.Grant g ->
        let take = Int.min (Int.min g (b.bounds.burstable - b.granted)) !free in
        if take > 0 then begin
          free := !free - take;
          transition t b ~action:Grant ~delta:take
        end
    | _ -> ()
  done

let tick t =
  t.ticks <- t.ticks + 1;
  t.decide t;
  arbitrate t;
  check_invariants t

let start t =
  if t.running then invalid_arg (t.who ^ ".start: already running");
  t.running <- true;
  Engine.every t.engine ~period:interval (fun () ->
      if t.running then tick t;
      t.running)

let stop t = t.running <- false
let granted t ~app = (find t app).granted

(* The series starts at the current grant: the changes before the first
   watch were never recorded. *)
let series t ~app =
  let b = find t app in
  if b.series == unwatched then begin
    let series = Timeseries.create () in
    Timeseries.record series ~at:(now t) b.granted;
    b.series <- series
  end;
  b.series

let capacity t = t.capacity
let grants t = t.grants
let reclaims t = t.reclaims
let yields t = t.yields
let degradations t = t.degradations
let quarantines t = t.quarantines
let releases t = t.releases
let crashes t = t.crashes
let ticks t = t.ticks
let charged_ns t = t.charged_ns
let events t = List.of_seq (Queue.to_seq t.event_log)

(* Pull-based registration: closures read arbiter state only at snapshot
   time, so attaching a registry cannot perturb the control loop. *)
let register_counters t ~prefix reg =
  let module Registry = Skyloft_obs.Registry in
  let c name help read = Registry.counter reg ~help (prefix ^ name) read in
  c "_grants_total" "Core grants applied" (fun () -> t.grants);
  c "_reclaims_total" "Forced core reclaims" (fun () -> t.reclaims);
  c "_yields_total" "Voluntary core yields" (fun () -> t.yields);
  c "_ticks_total" "Arbitration rounds" (fun () -> t.ticks);
  c "_charged_ns_total" "Switch cost charged for core transitions" (fun () ->
      t.charged_ns);
  c "_degradations_total" "Degradations on stale congestion signals"
    (fun () -> t.degradations);
  Registry.gauge reg (prefix ^ "_free_cores")
    ~help:"Cores currently in the free pool" (fun () ->
      float_of_int (free_cores t))

(* ---- the allocator: one runtime's apps under one shared policy ------------ *)

type config = {
  policy : Policy.t;
  be_guaranteed : int;
  degrade_after : int option;
}

let default_config () =
  {
    policy = Policy.static ();
    be_guaranteed = 0;
    degrade_after = None;
  }

type rules = {
  shared : Policy.t;
  fallback : Policy.t;  (* Static, used while degraded *)
  stale_after : int option;
  mutable degraded : bool;
}

type t = (rules, unit) arbiter

(* Arbiter-wide degradation: while any app's congestion signal is stale,
   decide with the predictable Static fallback instead of an adaptive
   policy whose hysteresis state is being fed frozen inputs. *)
let update_mode (t : t) =
  match t.rules.stale_after with
  | None -> ()
  | Some n ->
      let stale = Array.exists (fun b -> b.stale_ticks >= n) t.bindings in
      if stale <> t.rules.degraded then begin
        t.rules.degraded <- stale;
        log t
          {
            at = now t;
            id = -1;
            name = "allocator";
            action = (if stale then Degrade else Recover);
            granted = sum_granted t;
          }
      end

let deciding (t : t) = if t.rules.degraded then t.rules.fallback else t.rules.shared

let decide (t : t) =
  let n = Array.length t.bindings in
  for i = 0 to n - 1 do
    ignore (signal_of t i (t.bindings.(i).sample ()))
  done;
  update_mode t;
  let policy = deciding t in
  for i = 0 to n - 1 do
    t.decisions.(i) <- Policy.observe policy ~app:t.bindings.(i).id t.signals.(i)
  done

let create ~engine ~policy ~total_cores ?(on_event = ignore) ?degrade_after
    () : t =
  (match degrade_after with
  | Some n when n <= 0 -> invalid_arg "Allocator.create: degrade_after must be positive"
  | Some _ | None -> ());
  let rules =
    {
      shared = policy;
      fallback = Policy.static ();
      stale_after = degrade_after;
      degraded = false;
    }
  in
  arbiter ~who:"Allocator" ~member:"app" ~engine ~capacity:total_cores ~on_event
    ~rules ~decide

let register (t : t) ~app ~name ~kind ~bounds ~initial ~sample ~apply =
  bind t ~id:app ~name ~kind ~bounds ~initial ~sample ~apply ()

let degraded (t : t) = t.rules.degraded

let policy_name t = Policy.name (deciding t)

let register_metrics (t : t) reg =
  let module Registry = Skyloft_obs.Registry in
  register_counters t ~prefix:"skyloft_alloc" reg;
  Registry.gauge reg "skyloft_alloc_degraded"
    ~help:"1 while deciding with the Static fallback" (fun () ->
      if t.rules.degraded then 1.0 else 0.0);
  Array.iter
    (fun b ->
      let al = [ Registry.app b.name ] in
      Registry.gauge reg ~labels:al "skyloft_alloc_granted_cores"
        ~help:"Cores currently granted" (fun () -> float_of_int b.granted);
      Registry.series reg ~labels:al "skyloft_alloc_granted_series"
        ~help:"Granted core count over time" (series t ~app:b.id))
    t.bindings
