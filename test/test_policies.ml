(* Behavioural tests for each scheduling policy, driven through the real
   runtimes. *)

module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Coro = Skyloft_sim.Coro
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Kmod = Skyloft_kernel.Kmod
module Task = Skyloft.Task
module App = Skyloft.App
module Percpu = Skyloft.Percpu
module Hybrid = Skyloft.Hybrid
module Fifo = Skyloft_policies.Fifo
module Rr = Skyloft_policies.Rr
module Fair_percpu = Skyloft_policies.Fair_percpu
module Work_stealing = Skyloft_policies.Work_stealing
module Rc = Skyloft.Runtime_core

let check = Alcotest.check

let make_rt ?(cores = 4) ?(timer_hz = 100_000) ?(preemption = true) ctor =
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:8) in
  let kmod = Kmod.create machine in
  let rt =
    Percpu.runtime
      (Percpu.create machine kmod ~cores:(List.init cores Fun.id) ~timer_hz ~preemption ctor)
  in
  let app = Rc.create_app rt ~name:"app" in
  (engine, rt, app)

(* Spawn a compute task that records its completion time. *)
let spawn_timed engine rt app ?cpu name work finished =
  ignore
    (Rc.spawn rt app ~name ?cpu
       (Coro.Compute (work, fun () -> finished := Engine.now engine; Coro.Exit)))

(* ---- FIFO ---- *)

let test_fifo_order () =
  let engine, rt, app = make_rt ~cores:1 (Fifo.create ()) in
  let order = ref [] in
  for i = 1 to 5 do
    ignore
      (Rc.spawn rt app ~name:(string_of_int i)
         (Coro.Compute (Time.us 10, fun () -> order := i :: !order; Coro.Exit)))
  done;
  Engine.run ~until:(Time.ms 1) engine;
  check (Alcotest.list Alcotest.int) "completion in arrival order" [ 1; 2; 3; 4; 5 ]
    (List.rev !order)

let test_fifo_never_preempts () =
  let engine, rt, app = make_rt ~cores:1 (Fifo.create ()) in
  ignore (Rc.spawn rt app ~name:"hog" (Coro.compute_then_exit (Time.ms 3)));
  ignore (Rc.spawn rt app ~name:"short" (Coro.compute_then_exit (Time.us 1)));
  Engine.run ~until:(Time.ms 5) engine;
  check Alcotest.int "zero preemptions despite 100kHz ticks" 0 (Rc.preemptions rt)

(* ---- RR ---- *)

let test_rr_slices () =
  let engine, rt, app = make_rt ~cores:1 (Rr.create ~slice:(Time.us 50) ()) in
  let a = ref 0 and b = ref 0 in
  spawn_timed engine rt app "a" (Time.ms 1) a;
  spawn_timed engine rt app "b" (Time.ms 1) b;
  Engine.run ~until:(Time.ms 5) engine;
  (* interleaved: both finish around 2ms, within a slice of each other *)
  check Alcotest.bool "interleaved" true (abs (!a - !b) < Time.us 200);
  check Alcotest.bool "preempted many times" true (Rc.preemptions rt > 10)

let test_rr_infinite_slice_is_fifo () =
  let engine, rt, app = make_rt ~cores:1 (Rr.create ()) in
  let a = ref 0 and b = ref 0 in
  spawn_timed engine rt app "a" (Time.ms 1) a;
  spawn_timed engine rt app "b" (Time.ms 1) b;
  Engine.run ~until:(Time.ms 5) engine;
  check Alcotest.int "no preemption" 0 (Rc.preemptions rt);
  check Alcotest.bool "a then b" true (!a < !b && !a < Time.ms 2)

let test_rr_wakeup_to_idle_core () =
  let engine, rt, app = make_rt ~cores:2 (Rr.create ~slice:(Time.us 50) ()) in
  ignore (Rc.spawn rt app ~name:"hog" ~cpu:0 (Coro.compute_then_exit (Time.ms 2)));
  let woke = ref 0 in
  let sleeper =
    Rc.spawn rt app ~name:"sleeper" ~cpu:0
      (Coro.Block (fun () -> woke := Engine.now engine; Coro.Exit))
  in
  Engine.at engine (Time.us 500) (fun () -> Rc.wakeup rt sleeper);
  Engine.run ~until:(Time.ms 3) engine;
  (* core 1 is idle: the wakeup must land there immediately *)
  check Alcotest.bool "woken promptly on idle core" true
    (!woke > 0 && !woke < Time.us 505)

(* ---- CFS ---- *)

let test_cfs_fair_split () =
  let engine, rt, app = make_rt ~cores:1 (Fair_percpu.cfs ()) in
  (* two hogs that each want 5ms on one core *)
  let a = ref 0 and b = ref 0 in
  spawn_timed engine rt app "a" (Time.ms 5) a;
  spawn_timed engine rt app "b" (Time.ms 5) b;
  Engine.run ~until:(Time.ms 15) engine;
  check Alcotest.bool "both done close together (fair)" true
    (!a > 0 && !b > 0 && abs (!a - !b) < Time.ms 1)

let test_cfs_three_way_fairness () =
  let engine, rt, app = make_rt ~cores:1 (Fair_percpu.cfs ()) in
  let dones = Array.make 3 0 in
  for i = 0 to 2 do
    let r = ref 0 in
    spawn_timed engine rt app (Printf.sprintf "t%d" i) (Time.ms 2) r;
    Engine.at engine (Time.ms 14) (fun () -> dones.(i) <- !r)
  done;
  Engine.run ~until:(Time.ms 15) engine;
  let min_d = Array.fold_left min max_int dones and max_d = Array.fold_left max 0 dones in
  check Alcotest.bool "all three finish within ~1 slice window" true
    (min_d > 0 && max_d - min_d < Time.ms 1)

let test_cfs_sleeper_gets_priority () =
  (* A task that slept should preempt... in Skyloft CFS, run soon after
     wake even though a hog is running, bounded by the 10us tick. *)
  let engine, rt, app = make_rt ~cores:1 (Fair_percpu.cfs ()) in
  ignore (Rc.spawn rt app ~name:"hog" (Coro.compute_then_exit (Time.ms 4)));
  let woke_done = ref 0 in
  let sleeper =
    Rc.spawn rt app ~name:"sleeper"
      (Coro.Block
         (fun () ->
           Coro.Compute (Time.us 20, fun () -> woke_done := Engine.now engine; Coro.Exit)))
  in
  Engine.at engine (Time.ms 1) (fun () -> Rc.wakeup rt sleeper);
  Engine.run ~until:(Time.ms 6) engine;
  (* woken at 1ms with sleeper credit: should finish within ~100us, far
     before the hog's 4ms completion *)
  check Alcotest.bool "sleeper ran promptly" true
    (!woke_done > Time.ms 1 && !woke_done < Time.ms 1 + Time.us 150)

(* ---- EEVDF ---- *)

let test_eevdf_fair_split () =
  let engine, rt, app = make_rt ~cores:1 (Fair_percpu.eevdf ()) in
  let a = ref 0 and b = ref 0 in
  spawn_timed engine rt app "a" (Time.ms 5) a;
  spawn_timed engine rt app "b" (Time.ms 5) b;
  Engine.run ~until:(Time.ms 15) engine;
  check Alcotest.bool "fair" true (!a > 0 && !b > 0 && abs (!a - !b) < Time.ms 1)

let test_eevdf_lag_preserved_on_wake () =
  let engine, rt, app = make_rt ~cores:1 (Fair_percpu.eevdf ()) in
  ignore (Rc.spawn rt app ~name:"hog" (Coro.compute_then_exit (Time.ms 4)));
  let woke_done = ref 0 in
  let sleeper =
    Rc.spawn rt app ~name:"sleeper"
      (Coro.Block
         (fun () ->
           Coro.Compute (Time.us 20, fun () -> woke_done := Engine.now engine; Coro.Exit)))
  in
  Engine.at engine (Time.ms 1) (fun () -> Rc.wakeup rt sleeper);
  Engine.run ~until:(Time.ms 6) engine;
  check Alcotest.bool "woken task scheduled quickly (positive lag)" true
    (!woke_done > Time.ms 1 && !woke_done < Time.ms 1 + Time.us 150)

(* ---- Work stealing ---- *)

let test_ws_steals_to_idle_core () =
  let engine, rt, app = make_rt ~cores:2 (Work_stealing.create ()) in
  (* both tasks pinned to core 0's queue; core 1 must steal one *)
  let a = ref 0 and b = ref 0 in
  spawn_timed engine rt app ~cpu:0 "a" (Time.ms 1) a;
  spawn_timed engine rt app ~cpu:0 "b" (Time.ms 1) b;
  Engine.run ~until:(Time.ms 5) engine;
  check Alcotest.bool "ran in parallel via stealing" true
    (!a > 0 && !b > 0 && abs (!a - !b) < Time.us 100)

(* The GET arrives once the SCAN is already running (owner-head LIFO means
   a GET queued before the first dispatch would be picked first). *)
let test_ws_nonpreemptive_hol () =
  let engine, rt, app = make_rt ~cores:1 (Work_stealing.create ()) in
  let short = ref 0 in
  ignore (Rc.spawn rt app ~name:"scan" ~cpu:0 (Coro.compute_then_exit (Time.us 591)));
  Engine.at engine (Time.us 1) (fun () ->
      spawn_timed engine rt app ~cpu:0 "get" (Time.ns 950) short);
  Engine.run ~until:(Time.ms 2) engine;
  check Alcotest.bool "GET waited behind the SCAN" true (!short >= Time.us 591)

let test_ws_preemptive_breaks_hol () =
  let engine, rt, app =
    make_rt ~cores:1 (Work_stealing.create ~quantum:(Time.us 5) ())
  in
  let short = ref 0 in
  ignore (Rc.spawn rt app ~name:"scan" ~cpu:0 (Coro.compute_then_exit (Time.us 591)));
  Engine.at engine (Time.us 1) (fun () ->
      spawn_timed engine rt app ~cpu:0 "get" (Time.ns 950) short);
  Engine.run ~until:(Time.ms 2) engine;
  check Alcotest.bool "GET escaped within ~2 quanta" true
    (!short > 0 && !short < Time.us 25)

(* Direct-instance regression tests for the steal-path bugfixes: a
   synthetic view lets us assert queue order, victim distribution and
   wakeup placement without the runtime's dispatch noise. *)

let ws_instance ?(cores = [| 0; 1 |]) ?(is_idle = fun _ -> false) () =
  let view =
    {
      Skyloft.Sched_ops.cores;
      slots =
        (let slots = Array.make (Array.fold_left Int.max (-1) cores + 1) (-1) in
         Array.iteri (fun i c -> slots.(c) <- i) cores;
         slots);
      pick_idle = (fun () -> Array.find_opt is_idle cores);
      now = (fun () -> 0);
    }
  in
  Work_stealing.create () view

let mk_task name = Task.create ~app:1 ~name (Coro.compute_then_exit 1)

let names = Alcotest.list Alcotest.string

(* Owner-head LIFO: fresh tasks run newest-first, a preempted task goes to
   the tail behind queued short work (failed before the semantics fix:
   every reason was push_tail, making the queue plain FIFO). *)
let test_ws_owner_head_lifo () =
  let p = ws_instance () in
  let enq reason t = p.Skyloft.Sched_ops.task_enqueue ~cpu:0 ~reason t in
  List.iter
    (fun name -> enq Skyloft.Sched_ops.Enq_new (mk_task name))
    [ "a"; "b"; "c" ];
  let deq () =
    match p.Skyloft.Sched_ops.task_dequeue ~cpu:0 with
    | Some t -> t.Task.name
    | None -> "-"
  in
  check Alcotest.string "owner pops the newest first" "c" (deq ());
  enq Skyloft.Sched_ops.Enq_preempted (mk_task "preempted");
  let d1 = deq () in
  let d2 = deq () in
  let d3 = deq () in
  check names "preempted waits behind queued work" [ "b"; "a"; "preempted" ]
    [ d1; d2; d3 ]

(* The steal scan stops at the first hit and resumes from a persisted
   cursor, so repeated steals rotate across victims instead of draining
   thief+1 first (the old loop always restarted at thief+1). *)
let test_ws_steal_cursor_round_robin () =
  let p = ws_instance ~cores:[| 0; 1; 2; 3 |] () in
  (* two tasks per victim; pop_tail steals the first-enqueued one *)
  List.iter
    (fun cpu ->
      List.iter
        (fun tag ->
          p.Skyloft.Sched_ops.task_enqueue ~cpu ~reason:Skyloft.Sched_ops.Enq_new
            (mk_task (Printf.sprintf "v%d-%s" cpu tag)))
        [ "first"; "second" ])
    [ 1; 2; 3 ];
  let steal () =
    match p.Skyloft.Sched_ops.sched_balance ~cpu:0 with
    | Some t -> t.Task.name
    | None -> "-"
  in
  check Alcotest.string "first steal hits thief+1" "v1-first" (steal ());
  (* early exit: victims 2 and 3 were not touched by the first steal *)
  let local_len cpu =
    let rec drain acc =
      match p.Skyloft.Sched_ops.task_dequeue ~cpu with
      | Some t -> drain (t :: acc)
      | None -> acc
    in
    let popped_rev = drain [] in
    (* rebuild the queue exactly: push_head in reverse pop order *)
    List.iter
      (fun t ->
        p.Skyloft.Sched_ops.task_enqueue ~cpu ~reason:Skyloft.Sched_ops.Enq_new t)
      popped_rev;
    List.length popped_rev
  in
  check Alcotest.int "victim 2 untouched after the first steal" 2 (local_len 2);
  check Alcotest.int "victim 3 untouched after the first steal" 2 (local_len 3);
  let got = ref [] in
  for _ = 1 to 6 do
    got := steal () :: !got
  done;
  let got = List.rev !got in
  check names "subsequent steals rotate round-robin from the cursor"
    [ "v2-first"; "v3-first"; "v1-second"; "v2-second"; "v3-second"; "-" ]
    got

(* An unmanaged waker with no idle core rotates its fallback instead of
   hot-spotting core 0. *)
let test_ws_wakeup_fallback_rotates () =
  let p = ws_instance ~cores:[| 0; 1; 2 |] () in
  let targets =
    List.map
      (fun _ -> p.Skyloft.Sched_ops.task_wakeup ~waker_cpu:99 (mk_task "w"))
      [ 1; 2; 3; 4 ]
  in
  check (Alcotest.list Alcotest.int) "fallback rotates across cores"
    [ 0; 1; 2; 0 ] targets;
  (* an idle core still wins over the rotation *)
  let p = ws_instance ~cores:[| 0; 1; 2 |] ~is_idle:(fun c -> c = 2) () in
  check Alcotest.int "idle core preferred over the fallback" 2
    (p.Skyloft.Sched_ops.task_wakeup ~waker_cpu:99 (mk_task "w"))

(* ---- Skyloft-Shinjuku / Shinjuku-Shenango: FIFO behind the pinned
   serial dispatcher ---- *)

let make_centralized ?(workers = 2) ~quantum ctor =
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:8) in
  let kmod = Kmod.create machine in
  let rt =
    Hybrid.runtime
      (Hybrid.create machine kmod ~dispatcher_core:0
         ~worker_cores:(List.init workers (fun i -> i + 1))
         ~quantum ~adaptive:false ctor)
  in
  let app = Rc.create_app rt ~name:"lc" in
  (engine, rt, app)

let test_shinjuku_processor_sharing () =
  let engine, rt, app = make_centralized ~workers:1 ~quantum:(Time.us 30) (Fifo.create ()) in
  let short = ref 0 in
  ignore
    (Rc.spawn rt app ~name:"long" ~service:(Time.ms 10)
       (Coro.compute_then_exit (Time.ms 10)));
  ignore
    (Rc.spawn rt app ~name:"short" ~service:(Time.us 4)
       (Coro.Compute (Time.us 4, fun () -> short := Engine.now engine; Coro.Exit)));
  Engine.run ~until:(Time.ms 20) engine;
  check Alcotest.bool "short request escaped the 10ms request" true
    (!short > 0 && !short < Time.us 100)

(* Shenango's congestion signal (the oldest queued request's wait) is the
   runtime's, whatever the policy. *)
let test_shinjuku_shenango_congestion_stats () =
  let engine, rt, app = make_centralized ~workers:1 ~quantum:(Time.us 30) (Fifo.create ()) in
  (* overload the single worker so the queue backs up *)
  for _ = 1 to 20 do
    ignore
      (Rc.spawn rt app ~name:"req" ~service:(Time.us 100)
         (Coro.compute_then_exit (Time.us 100)))
  done;
  Engine.run ~until:(Time.ms 1) engine;
  let c = Rc.congestion rt in
  check Alcotest.bool "requests queued" true (c.Skyloft_alloc.Allocator.runq_len > 0);
  check Alcotest.bool "queueing delay observed" true (c.Skyloft_alloc.Allocator.oldest_delay > 0);
  Engine.run ~until:(Time.ms 10) engine;
  check Alcotest.int "all served eventually" 20 app.App.completed

let suite =
  [
    Alcotest.test_case "fifo: completion order" `Quick test_fifo_order;
    Alcotest.test_case "fifo: never preempts" `Quick test_fifo_never_preempts;
    Alcotest.test_case "rr: slicing" `Quick test_rr_slices;
    Alcotest.test_case "rr: infinite slice = fifo" `Quick test_rr_infinite_slice_is_fifo;
    Alcotest.test_case "rr: wakeup to idle core" `Quick test_rr_wakeup_to_idle_core;
    Alcotest.test_case "cfs: fair split" `Quick test_cfs_fair_split;
    Alcotest.test_case "cfs: 3-way fairness" `Quick test_cfs_three_way_fairness;
    Alcotest.test_case "cfs: sleeper priority" `Quick test_cfs_sleeper_gets_priority;
    Alcotest.test_case "eevdf: fair split" `Quick test_eevdf_fair_split;
    Alcotest.test_case "eevdf: lag on wake" `Quick test_eevdf_lag_preserved_on_wake;
    Alcotest.test_case "ws: stealing" `Quick test_ws_steals_to_idle_core;
    Alcotest.test_case "ws: HoL without preemption" `Quick test_ws_nonpreemptive_hol;
    Alcotest.test_case "ws: preemption breaks HoL" `Quick test_ws_preemptive_breaks_hol;
    Alcotest.test_case "ws: owner-head LIFO, preempted to tail" `Quick
      test_ws_owner_head_lifo;
    Alcotest.test_case "ws: steal cursor round-robin + early exit" `Quick
      test_ws_steal_cursor_round_robin;
    Alcotest.test_case "ws: wakeup fallback rotates off core 0" `Quick
      test_ws_wakeup_fallback_rotates;
    Alcotest.test_case "shinjuku: processor sharing" `Quick test_shinjuku_processor_sharing;
    Alcotest.test_case "shinjuku-shenango: congestion stats" `Quick
      test_shinjuku_shenango_congestion_stats;
  ]
