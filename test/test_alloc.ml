(* Unit tests for the core allocator: policy decisions and the arbitration
   loop, driven directly with synthetic congestion samples (no runtime). *)

module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Timeseries = Skyloft_stats.Timeseries
module Costs = Skyloft_hw.Costs
module Policy = Skyloft_alloc.Policy
module Allocator = Skyloft_alloc.Allocator

let check = Alcotest.check

(* A fake app: the test scripts its congestion signals; [apply] mimics the
   runtimes' charging convention (BE pays the §5.4 cost per core moved). *)
type fake = {
  mutable runq : int;
  mutable delay : Time.t;
  mutable busy_rate : float;  (* fraction of granted cores kept busy *)
  mutable busy_acc : float;
  mutable applied : int list;  (* grant after each transition, newest first *)
}

let fake () = { runq = 0; delay = 0; busy_rate = 0.0; busy_acc = 0.0; applied = [] }

let interval = Allocator.interval

let register alloc ~app ~kind ~bounds ~initial ?(charge = false) f =
  let granted = ref initial in
  Allocator.register alloc ~app
    ~name:(Printf.sprintf "app%d" app)
    ~kind ~bounds ~initial
    ~sample:(fun () ->
      (* busy tracks the scripted rate against the current grant *)
      f.busy_acc <-
        f.busy_acc
        +. (f.busy_rate *. float_of_int (max 1 !granted) *. float_of_int interval);
      {
        Allocator.runq_len = f.runq;
        oldest_delay = f.delay;
        busy_ns = int_of_float f.busy_acc;
      })
    ~apply:(fun ~granted:g ~delta ->
      granted := g;
      f.applied <- g :: f.applied;
      if charge then Costs.app_switch_ns * abs delta else 0)

let make ?(policy = Policy.static ()) ?(total_cores = 8) () =
  let engine = Engine.create () in
  let alloc = Allocator.create ~engine ~policy ~total_cores () in
  (engine, alloc)

(* ---- registration & bounds ---- *)

let test_register_validates () =
  let _, alloc = make () in
  let f = fake () in
  let bad g = try g (); false with Invalid_argument _ -> true in
  check Alcotest.bool "guaranteed > burstable rejected" true
    (bad (fun () ->
         register alloc ~app:1 ~kind:Policy.Lc
           ~bounds:{ Allocator.guaranteed = 3; burstable = 2 }
           ~initial:2 f));
  check Alcotest.bool "burstable > pool rejected" true
    (bad (fun () ->
         register alloc ~app:1 ~kind:Policy.Lc
           ~bounds:{ Allocator.guaranteed = 0; burstable = 9 }
           ~initial:0 f));
  check Alcotest.bool "initial outside bounds rejected" true
    (bad (fun () ->
         register alloc ~app:1 ~kind:Policy.Lc
           ~bounds:{ Allocator.guaranteed = 2; burstable = 4 }
           ~initial:1 f));
  register alloc ~app:1 ~kind:Policy.Lc
    ~bounds:{ Allocator.guaranteed = 0; burstable = 8 }
    ~initial:6 f;
  check Alcotest.bool "initial grants may not oversubscribe the pool" true
    (bad (fun () ->
         register alloc ~app:2 ~kind:Policy.Be
           ~bounds:{ Allocator.guaranteed = 0; burstable = 8 }
           ~initial:3 (fake ())));
  check Alcotest.int "free pool tracks grants" 2 (Allocator.free_cores alloc)

(* ---- static policy arbitration ---- *)

let test_static_reclaims_for_lc () =
  let _, alloc = make () in
  let lc = fake () and be = fake () in
  register alloc ~app:1 ~kind:Policy.Lc
    ~bounds:{ Allocator.guaranteed = 0; burstable = 8 }
    ~initial:0 lc;
  register alloc ~app:2 ~kind:Policy.Be ~charge:true
    ~bounds:{ Allocator.guaranteed = 0; burstable = 8 }
    ~initial:8 be;
  (* LC congestion: 3 queued tasks -> steal 3 cores from BE *)
  lc.runq <- 3;
  Allocator.tick alloc;
  check Alcotest.int "LC granted 3" 3 (Allocator.granted alloc ~app:1);
  check Alcotest.int "BE shrunk to 5" 5 (Allocator.granted alloc ~app:2);
  check Alcotest.int "switch cost charged per core moved"
    (3 * Costs.app_switch_ns) (Allocator.charged_ns alloc);
  (* queue drains -> LC yields everything, BE regrows within one tick *)
  lc.runq <- 0;
  Allocator.tick alloc;
  check Alcotest.int "LC back to 0" 0 (Allocator.granted alloc ~app:1);
  check Alcotest.int "BE back to 8" 8 (Allocator.granted alloc ~app:2);
  check Alcotest.bool "yields counted separately" true (Allocator.yields alloc >= 1)

let test_guaranteed_never_reclaimed () =
  let _, alloc = make () in
  let lc = fake () and be = fake () in
  register alloc ~app:1 ~kind:Policy.Lc
    ~bounds:{ Allocator.guaranteed = 0; burstable = 8 }
    ~initial:0 lc;
  (* BE holds 2 guaranteed cores *)
  register alloc ~app:2 ~kind:Policy.Be
    ~bounds:{ Allocator.guaranteed = 2; burstable = 8 }
    ~initial:8 be;
  (* LC demands far more than the pool: BE must keep its guarantee *)
  lc.runq <- 100;
  for _ = 1 to 10 do
    Allocator.tick alloc
  done;
  check Alcotest.int "BE kept its guaranteed cores" 2 (Allocator.granted alloc ~app:2);
  check Alcotest.int "LC capped at pool minus guarantee" 6
    (Allocator.granted alloc ~app:1);
  (* and the guarantee survives every recorded transition *)
  check Alcotest.bool "no transition ever dipped below the guarantee" true
    (List.for_all (fun g -> g >= 2) be.applied)

let test_burstable_caps_grants () =
  let _, alloc = make () in
  let lc = fake () in
  register alloc ~app:1 ~kind:Policy.Lc
    ~bounds:{ Allocator.guaranteed = 0; burstable = 3 }
    ~initial:0 lc;
  lc.runq <- 50;
  Allocator.tick alloc;
  Allocator.tick alloc;
  check Alcotest.int "LC capped at burstable" 3 (Allocator.granted alloc ~app:1);
  check Alcotest.int "rest of the pool stays free" 5 (Allocator.free_cores alloc)

(* ---- hysteresis ---- *)

let test_hysteresis_prevents_oscillation () =
  (* Steady 60% utilization sits between the watermarks: a hysteresis-2
     utilization policy must make no transitions at all after warm-up. *)
  let _, alloc =
    make ~policy:(Policy.utilization ()) ()
  in
  let lc = fake () in
  register alloc ~app:1 ~kind:Policy.Lc
    ~bounds:{ Allocator.guaranteed = 0; burstable = 8 }
    ~initial:4 lc;
  lc.busy_rate <- 0.6;
  for _ = 1 to 50 do
    Allocator.tick alloc
  done;
  check Alcotest.int "no grants under steady mid-band load" 0 (Allocator.grants alloc);
  check Alcotest.int "no yields under steady mid-band load" 0 (Allocator.yields alloc);
  check Alcotest.int "grant unchanged" 4 (Allocator.granted alloc ~app:1)

let test_hysteresis_filters_single_tick_spike () =
  (* One tick above the high watermark must not trigger a grant with
     hysteresis 2; two consecutive ones must. *)
  let _, alloc =
    make ~policy:(Policy.utilization ()) ()
  in
  let lc = fake () in
  register alloc ~app:1 ~kind:Policy.Lc
    ~bounds:{ Allocator.guaranteed = 0; burstable = 8 }
    ~initial:4 lc;
  lc.busy_rate <- 0.95;
  Allocator.tick alloc;
  lc.busy_rate <- 0.5;
  Allocator.tick alloc;
  check Alcotest.int "single spike filtered" 0 (Allocator.grants alloc);
  lc.busy_rate <- 0.95;
  Allocator.tick alloc;
  Allocator.tick alloc;
  check Alcotest.bool "sustained load grants" true (Allocator.grants alloc >= 1)

(* ---- delay policy ---- *)

let test_delay_policy_grants_on_queueing () =
  let _, alloc =
    make ~policy:(Policy.delay ()) ()
  in
  let lc = fake () and be = fake () in
  register alloc ~app:1 ~kind:Policy.Lc
    ~bounds:{ Allocator.guaranteed = 0; burstable = 8 }
    ~initial:0 lc;
  register alloc ~app:2 ~kind:Policy.Be
    ~bounds:{ Allocator.guaranteed = 0; burstable = 8 }
    ~initial:8 be;
  (* old delay below threshold: no reclaim *)
  lc.runq <- 2;
  lc.delay <- Time.us 8;
  Allocator.tick alloc;
  check Alcotest.int "below threshold holds" 8 (Allocator.granted alloc ~app:2);
  (* above threshold: steal for each queued task *)
  lc.delay <- Time.us 12;
  Allocator.tick alloc;
  check Alcotest.int "above threshold steals" 2 (Allocator.granted alloc ~app:1);
  (* calm + fully idle LC: cores trickle back after idle_ticks *)
  lc.runq <- 0;
  lc.delay <- 0;
  lc.busy_rate <- 0.0;
  for _ = 1 to 10 do
    Allocator.tick alloc
  done;
  check Alcotest.bool "idle LC yields back" true (Allocator.granted alloc ~app:1 < 2)

(* ---- periodic loop & timeseries ---- *)

let test_periodic_loop_and_series () =
  let engine, alloc = make () in
  let lc = fake () and be = fake () in
  register alloc ~app:1 ~kind:Policy.Lc
    ~bounds:{ Allocator.guaranteed = 0; burstable = 8 }
    ~initial:0 lc;
  register alloc ~app:2 ~kind:Policy.Be
    ~bounds:{ Allocator.guaranteed = 0; burstable = 8 }
    ~initial:8 be;
  let s = Allocator.series alloc ~app:2 in
  Allocator.start alloc;
  Engine.at engine (Time.us 12) (fun () -> lc.runq <- 4);
  Engine.at engine (Time.us 32) (fun () -> lc.runq <- 0);
  Engine.run ~until:(Time.us 100) engine;
  check Alcotest.bool "ticked every interval" true (Allocator.ticks alloc >= 19);
  (* runq stays at 4 until 32us, so the static policy keeps stealing: the
     series, watched before the run, must record BE dipping (all the way
     to 0 after two ticks) and recovering once the queue drains *)
  check Alcotest.int "series recorded the dip" 0 (Timeseries.min_value s);
  check Alcotest.int "series back at burstable" 8
    (match Timeseries.last s with Some (_, v) -> v | None -> -1);
  Allocator.stop alloc;
  let before = Allocator.ticks alloc in
  Engine.run ~until:(Time.us 200) engine;
  check Alcotest.int "stop halts the loop" before (Allocator.ticks alloc)

(* A grant series records only once watched, and watching feeds nothing
   back: the same scripted run, unwatched and watched from the start,
   makes the same transitions.  The unwatched series starts at the first
   call, with the grant at that time. *)
let test_series_only_when_watched () =
  let run ~watch =
    let engine, alloc = make () in
    let lc = fake () and be = fake () in
    register alloc ~app:1 ~kind:Policy.Lc
      ~bounds:{ Allocator.guaranteed = 0; burstable = 8 }
      ~initial:0 lc;
    register alloc ~app:2 ~kind:Policy.Be
      ~bounds:{ Allocator.guaranteed = 0; burstable = 8 }
      ~initial:8 be;
    if watch then ignore (Allocator.series alloc ~app:2);
    Allocator.start alloc;
    Engine.at engine (Time.us 12) (fun () -> lc.runq <- 4);
    Engine.at engine (Time.us 32) (fun () -> lc.runq <- 0);
    Engine.run ~until:(Time.us 100) engine;
    let outcome =
      ( Allocator.grants alloc,
        Allocator.reclaims alloc,
        Allocator.yields alloc,
        List.map (fun (e : Allocator.event) -> (e.at, e.id, e.granted)) (Allocator.events alloc) )
    in
    (outcome, Skyloft_stats.Timeseries.to_list (Allocator.series alloc ~app:2))
  in
  let unwatched, late = run ~watch:false in
  let watched, full = run ~watch:true in
  check Alcotest.bool "watching changes no transition" true (unwatched = watched);
  check Alcotest.bool "the watched series saw the dip" true (List.length full > 2);
  check
    Alcotest.(list (pair int int))
    "an unwatched binding recorded nothing"
    [ (Time.us 100, 8) ]
    late

let test_event_log () =
  let events = ref [] in
  let lc = fake () and be = fake () in
  let engine = Engine.create () in
  let alloc =
    Allocator.create ~engine ~policy:(Policy.static ()) ~total_cores:8
      ~on_event:(fun ev -> events := ev :: !events)
      ()
  in
  register alloc ~app:1 ~kind:Policy.Lc
    ~bounds:{ Allocator.guaranteed = 0; burstable = 8 }
    ~initial:0 lc;
  register alloc ~app:2 ~kind:Policy.Be
    ~bounds:{ Allocator.guaranteed = 0; burstable = 8 }
    ~initial:8 be;
  lc.runq <- 2;
  Allocator.tick alloc;
  check Alcotest.bool "on_event fired" true (List.length !events >= 2);
  check Alcotest.bool "log matches hook" true
    (List.length (Allocator.events alloc) = List.length !events);
  check Alcotest.bool "reclaim recorded against BE" true
    (List.exists
       (fun (e : Allocator.event) ->
         e.Allocator.id = 2 && e.Allocator.action = Allocator.Reclaim)
       !events)

(* ---- degradation: mode-transition events alternate with honest times ---- *)

(* The event log must tell the degradation story exactly: one [Degraded]
   per stale episode, one [Recovered] per thaw, strictly alternating,
   each stamped with the virtual time of the tick that crossed the edge —
   not the tick the staleness began, and never a duplicate while the
   condition persists. *)
let test_degrade_recover_event_ordering () =
  let engine = Engine.create () in
  let modes = ref [] in
  let alloc =
    Allocator.create ~engine
      ~policy:(Policy.delay ())
      ~total_cores:4 ~degrade_after:3
      ~on_event:(fun e ->
        if e.Allocator.id = -1 then modes := e :: !modes)
      ()
  in
  let frozen = ref true in
  let busy = ref 0 in
  Allocator.register alloc ~app:0 ~name:"lc" ~kind:Policy.Lc
    ~bounds:{ Allocator.guaranteed = 1; burstable = 4 }
    ~initial:2
    ~sample:(fun () ->
      (* work queued, cores granted; zero progress while frozen *)
      if not !frozen then busy := !busy + Time.us 8;
      { Allocator.runq_len = 4; oldest_delay = Time.us 20; busy_ns = !busy })
    ~apply:(fun ~granted:_ ~delta:_ -> 0);
  let tick_at k =
    Engine.run ~until:(k * interval) engine;
    Allocator.tick alloc
  in
  (* two full episodes: freeze (ticks 1-3), thaw (4), freeze (5-7), thaw (8) *)
  for k = 1 to 8 do
    (match k with 4 -> frozen := false | 5 -> frozen := true | 8 -> frozen := false | _ -> ());
    tick_at k
  done;
  let modes = List.rev !modes in
  check (Alcotest.list Alcotest.int) "stamped with the edge-crossing tick's time"
    [ 3 * interval; 4 * interval; 7 * interval; 8 * interval ]
    (List.map (fun e -> e.Allocator.at) modes);
  check Alcotest.bool "strictly alternating Degraded/Recovered" true
    (List.map (fun e -> e.Allocator.action) modes
    = [ Allocator.Degrade; Allocator.Recover;
        Allocator.Degrade; Allocator.Recover ]);
  List.iter
    (fun e ->
      check Alcotest.string "allocator-wide event" "allocator" e.Allocator.name)
    modes;
  check Alcotest.int "one degradation counted per episode" 2
    (Allocator.degradations alloc);
  check Alcotest.bool "ends recovered" false (Allocator.degraded alloc)

(* ---- one arbiter: the allocator is the broker with its defenses off ---- *)

module Broker = Skyloft_alloc.Broker

(* Three bindings (LC, BE, LC) on an 8-core pool; each scripted tick
   gives every binding (queued tasks, oldest delay in µs, busy time as a
   percentage of its granted cores). *)
let differential_specs =
  [
    (Policy.Lc, { Allocator.guaranteed = 0; burstable = 5 }, 1);
    (Policy.Be, { Allocator.guaranteed = 1; burstable = 8 }, 6);
    (Policy.Lc, { Allocator.guaranteed = 0; burstable = 4 }, 1);
  ]

let differential_script_gen =
  let step = QCheck.Gen.(triple (int_range 0 6) (int_range 0 40) (int_range 0 120)) in
  QCheck.make
    ~print:(fun ticks -> Printf.sprintf "<%d-tick script>" (List.length ticks))
    QCheck.Gen.(list_repeat 200 (array_repeat 3 step))

(* Replay [script] through one arbiter: [register] binds each spec with
   its own busy accumulator, then [tick] runs one round per step. *)
let replay script ~register ~tick =
  let script = Array.of_list script in
  let cursor = ref 0 in
  List.iteri
    (fun i (kind, bounds, initial) ->
      let granted = ref initial and busy = ref 0 in
      register ~id:i ~kind ~bounds ~initial
        ~sample:(fun () ->
          let runq, delay_us, pct = script.(!cursor).(i) in
          busy := !busy + (pct * max 1 !granted * interval / 100);
          { Allocator.runq_len = runq; oldest_delay = Time.us delay_us; busy_ns = !busy })
        ~apply:(fun ~granted:g ~delta:_ ->
          granted := g;
          0))
    differential_specs;
  Array.iteri
    (fun k _ ->
      cursor := k;
      tick ())
    script

let prop_alloc_equals_broker (policy_name, make_policy) =
  QCheck.Test.make
    ~name:("alloc: equals the broker with its defenses off, " ^ policy_name)
    ~count:100 differential_script_gen
    (fun script ->
      let events_of =
        List.map (fun (e : Allocator.event) -> (e.id, e.action, e.granted))
      in
      let engine = Engine.create () in
      let alloc = Allocator.create ~engine ~policy:(make_policy ()) ~total_cores:8 () in
      replay script
        ~register:(fun ~id ->
          Allocator.register alloc ~app:id ~name:(Printf.sprintf "b%d" id))
        ~tick:(fun () -> Allocator.tick alloc);
      let broker =
        Broker.create ~engine ~capacity:8
          ~config:
            {
              (Broker.default_config ()) with
              degrade_after = max_int;
              hoard_cap = max_int;
            }
          ()
      in
      let policy = make_policy () in
      replay script
        ~register:(fun ~id ->
          Broker.register broker ~tenant:id ~name:(Printf.sprintf "b%d" id) ~policy)
        ~tick:(fun () -> Broker.tick broker);
      let alloc_log = Allocator.events alloc in
      alloc_log <> [] && events_of alloc_log = events_of (Broker.events broker))

(* The reactive policies keep per-app hysteresis state keyed by app id.
   Once an app is known, a [Hold] answer allocates nothing: the lookup
   neither boxes an option nor builds a closure.  The signal holds under
   both policies: its utilization lies between the watermarks, and its
   queued task waits less than the delay threshold. *)
let test_policy_lookup_allocates_nothing () =
  let hold_lc =
    {
      Policy.kind = Policy.Lc;
      cores = 2;
      runq_len = 1;
      oldest_delay = 0;
      busy_ns = 1;
      window_ns = 2;
    }
  in
  List.iter
    (fun (name, policy) ->
      for app = 0 to 7 do
        ignore (Policy.observe policy ~app hold_lc)
      done;
      let before = Gc.minor_words () in
      for i = 1 to 10_000 do
        match Policy.observe policy ~app:(i land 7) hold_lc with
        | Policy.Hold -> ()
        | _ -> Alcotest.failf "%s: expected Hold" name
      done;
      let words = Gc.minor_words () -. before in
      check (Alcotest.float 0.0) (name ^ ": words for 10k lookups") 0.0 words)
    [ ("utilization", Policy.utilization ()); ("delay", Policy.delay ()) ]

let suite =
  [
    Alcotest.test_case "alloc: policy state lookup allocates nothing" `Quick
      test_policy_lookup_allocates_nothing;
    Alcotest.test_case "alloc: registration bounds" `Quick test_register_validates;
    Alcotest.test_case "alloc: static reclaims for LC" `Quick
      test_static_reclaims_for_lc;
    Alcotest.test_case "alloc: guaranteed cores never reclaimed" `Quick
      test_guaranteed_never_reclaimed;
    Alcotest.test_case "alloc: burstable caps grants" `Quick test_burstable_caps_grants;
    Alcotest.test_case "alloc: hysteresis prevents oscillation" `Quick
      test_hysteresis_prevents_oscillation;
    Alcotest.test_case "alloc: hysteresis filters spikes" `Quick
      test_hysteresis_filters_single_tick_spike;
    Alcotest.test_case "alloc: delay policy" `Quick test_delay_policy_grants_on_queueing;
    Alcotest.test_case "alloc: periodic loop + timeseries" `Quick
      test_periodic_loop_and_series;
    Alcotest.test_case "alloc: a grant series records only once watched" `Quick
      test_series_only_when_watched;
    Alcotest.test_case "alloc: event log" `Quick test_event_log;
    Alcotest.test_case "alloc: degrade/recover event ordering" `Quick
      test_degrade_recover_event_ordering;
  ]
  @ List.map
      (fun p -> QCheck_alcotest.to_alcotest (prop_alloc_equals_broker p))
      [
        ("static", Policy.static);
        ("delay", fun () -> Policy.delay ());
        ("utilization", fun () -> Policy.utilization ());
      ]
