(* Runtime_core exercised through a minimal in-test stub runtime: a bare
   synchronous DISPATCH over N execution units and a FIFO policy, nothing
   else.  If the substrate really carries the shared machinery — lifecycle
   + attribution, app table, BE occupancy, deadline kills, watchdog
   bookkeeping — then even this degenerate runtime gets all of it for
   free, and these tests pin that down without either real runtime in the
   loop. *)

open Alcotest
module Engine = Skyloft_sim.Engine
module Time = Skyloft_sim.Time
module Coro = Skyloft_sim.Coro
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Kmod = Skyloft_kernel.Kmod
module Histogram = Skyloft_stats.Histogram
module Summary = Skyloft_stats.Summary
module Trace = Skyloft_stats.Trace
module Attribution = Skyloft_obs.Attribution
module App = Skyloft.App
module Task = Skyloft.Task
module Sched_ops = Skyloft.Sched_ops
module Rc = Skyloft.Runtime_core

type stub = {
  rc : Rc.t;
  execs : Rc.exec array;
  engine : Engine.t;
}

let reschedule st ex ~prev:_ =
  if Rc.current ex == Task.nil then begin
    let next =
      match
        if Rc.be_occupancy st.rc < Rc.be_allowance st.rc then Rc.next_be st.rc
        else None
      with
      | Some _ as be -> be
      | None -> Rc.next_lc st.rc ~cpu:(Rc.exec_core ex) ~balance:false
    in
    match next with
    | Some task ->
        ignore (Rc.begin_run st.rc ex task ~switch_cost:0);
        Rc.run_after_switch st.rc ex ~switch_cost:0
    | None -> ()
  end

let kick_all st = Array.iter (fun ex -> reschedule st ex ~prev:None) st.execs

(* Every queue lives at cpu 0 so a FIFO policy behaves as one shared
   queue regardless of how many units the stub has. *)
let make ?(units = 1) () =
  let engine = Engine.create () in
  let machine =
    Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:4)
  in
  let kmod = Kmod.create machine in
  let rc = Rc.create machine kmod in
  let execs = Array.init units Rc.make_exec in
  let st = { rc; execs; engine } in
  Rc.install_dispatch rc
    {
      Rc.null_dispatch with
      Rc.d_name = "stub";
      d_units = execs;
      d_enqueue_cpu = (fun _ -> 0);
      d_reschedule = (fun ex ~prev -> reschedule st ex ~prev);
      d_place =
        (fun task ~cpu:_ ->
          (Rc.policy rc).task_init task;
          Rc.enqueue rc ~cpu:0 ~reason:Sched_ops.Enq_new task;
          kick_all st);
      d_wake =
        (fun task ->
          ignore (Rc.place_woken rc ~waker_cpu:0 task);
          kick_all st);
    };
  Rc.install_policy rc (Skyloft_policies.Fifo.create ());
  st

let spawn st = Rc.spawn st.rc

(* ---- app table ----------------------------------------------------------- *)

let test_find_app_many () =
  let st = make () in
  let apps =
    List.init 200 (fun i ->
        Rc.new_app st.rc ~name:(Printf.sprintf "app%d" i))
  in
  List.iter
    (fun (app : App.t) ->
      let found = Rc.find_app st.rc app.App.id in
      check bool
        (Printf.sprintf "app %d resolves to itself" app.App.id)
        true (found == app))
    apps;
  check string "daemon is id 0" (App.daemon ()).App.name
    (Rc.find_app st.rc 0).App.name;
  check_raises "unknown id raises Not_found" Not_found (fun () ->
      ignore (Rc.find_app st.rc 99_999));
  check_raises "next id raises Not_found" Not_found (fun () ->
      ignore (Rc.find_app st.rc (List.length apps + 1)));
  check_raises "negative id raises Not_found" Not_found (fun () ->
      ignore (Rc.find_app st.rc (-1)))

(* The kthread table is indexed by app id like the app table: apps made
   with [create_app] past its initial size each resolve to their own
   kthread on every unit, and an app with none, an unknown id and a
   negative id all raise [Not_found]. *)
let test_kthread_many () =
  let st = make ~units:2 () in
  let bare = List.init 70 (fun i -> Rc.new_app st.rc ~name:(Printf.sprintf "bare%d" i)) in
  let launched =
    List.init 90 (fun i -> Rc.create_app st.rc ~name:(Printf.sprintf "app%d" i))
  in
  Array.iter
    (fun (ex : Rc.exec) ->
      let core = Rc.exec_core ex in
      let parked = Kmod.kthreads_on (Rc.kmod st.rc) ~core in
      let kts =
        List.map (fun (app : App.t) -> Rc.kthread st.rc ~app:app.App.id ~core) launched
      in
      List.iter
        (fun kt -> check bool "kthread is parked on its core" true (List.memq kt parked))
        kts;
      let distinct =
        List.fold_left (fun acc kt -> if List.memq kt acc then acc else kt :: acc) [] kts
      in
      check int "one kthread per launched app" (List.length launched)
        (List.length distinct);
      List.iter
        (fun (app : App.t) ->
          check_raises "app without kthreads raises Not_found" Not_found (fun () ->
              ignore (Rc.kthread st.rc ~app:app.App.id ~core)))
        bare;
      List.iter
        (fun id ->
          check_raises
            (Printf.sprintf "app id %d raises Not_found" id)
            Not_found
            (fun () -> ignore (Rc.kthread st.rc ~app:id ~core)))
        [ 99_999; List.length bare + List.length launched + 1; -1; min_int ])
    st.execs

(* ---- lifecycle + attribution --------------------------------------------- *)

let test_lifecycle_attribution () =
  let st = make () in
  let app = Rc.new_app st.rc ~name:"lc" in
  (* one yielding request, one blocking request woken externally *)
  ignore
    (spawn st app ~name:"yielder" ~service:(Time.us 50)
       (Coro.Compute
          ( Time.us 20,
            fun () ->
              Coro.Yield
                (fun () -> Coro.Compute (Time.us 30, fun () -> Coro.Exit)) )));
  let blocker =
    spawn st app ~name:"blocker" ~service:(Time.us 20)
      (Coro.Compute
         ( Time.us 10,
           fun () ->
             Coro.Block (fun () -> Coro.Compute (Time.us 10, fun () -> Coro.Exit))
         ))
  in
  Engine.after st.engine (Time.us 200) (fun () -> Rc.wakeup st.rc blocker);
  Engine.run ~until:(Time.ms 2) st.engine;
  check int "both requests completed" 2 (Summary.requests app.App.summary);
  check int "attribution recorded both" 2 (Attribution.requests app.App.attribution);
  check int "identity holds (no mismatches)" 0
    (Attribution.mismatches app.App.attribution);
  check int "busy time is the compute total" (Time.us 70) app.App.busy_ns;
  check int "no tasks left alive" 0 app.App.tasks_alive;
  check bool "wakeup-to-dispatch latency sampled" false
    (Histogram.is_empty (Rc.wakeup_hist st.rc));
  (* stall must cover the blocked interval: response - service - queue > 150us *)
  check bool "blocked interval attributed as stall" true
    (Histogram.mean (Attribution.stall app.App.attribution) > 0.0)

(* ---- deadline kills ------------------------------------------------------- *)

let test_deadline_kills () =
  let st = make () in
  let app = Rc.new_app st.rc ~name:"lc" in
  let dropped = ref [] in
  let on_drop (task : Task.t) = dropped := task.Task.name :: !dropped in
  (* A runs and is killed mid-flight; C is killed while still queued behind
     A (discarded lazily at dequeue); B completes; D blocks and is killed
     while blocked. *)
  ignore
    (spawn st app ~name:"A" ~deadline:(Time.us 100) ~on_drop
       (Coro.Compute (Time.ms 1, fun () -> Coro.Exit)));
  ignore
    (spawn st app ~name:"C" ~deadline:(Time.us 60) ~on_drop
       (Coro.Compute (Time.us 50, fun () -> Coro.Exit)));
  ignore
    (spawn st app ~name:"B" ~service:(Time.us 50) ~deadline:(Time.ms 2)
       (Coro.Compute (Time.us 50, fun () -> Coro.Exit)));
  ignore
    (spawn st app ~name:"D" ~deadline:(Time.us 300) ~on_drop
       (Coro.Compute
          ( Time.us 10,
            fun () -> Coro.Block (fun () -> Coro.Exit) )));
  Engine.run ~until:(Time.ms 3) st.engine;
  check int "three deadline drops" 3 (Rc.deadline_drops st.rc);
  check int "only B completed" 1 (Summary.requests app.App.summary);
  check int "drops counted in the summary" 3 (Summary.drops app.App.summary);
  check (list string) "on_drop saw A, C and D"
    [ "A"; "C"; "D" ]
    (List.sort compare !dropped);
  check int "no tasks left alive" 0 app.App.tasks_alive;
  check_raises "non-positive deadline rejected"
    (Invalid_argument "Runtime_core.spawn: deadline must be positive") (fun () ->
      ignore
        (spawn st app ~name:"bad" ~deadline:0 (Coro.Compute (1, fun () -> Coro.Exit))))

(* ---- watchdog bookkeeping ------------------------------------------------- *)

let test_watchdog_rescue () =
  let st = make () in
  let app = Rc.new_app st.rc ~name:"lc" in
  let trace = Trace.create () in
  Rc.set_trace st.rc trace;
  let bound = Time.us 50 in
  (* The stub's scan: any task a full bound past its start is deposed and
     requeued — Runtime_core counts, samples and traces the rescue. *)
  let scan ~bound =
    Array.iter
      (fun ex ->
        let task = Rc.current ex in
        if task != Task.nil && Engine.armed (Rc.completion ex) then begin
          let overrun = Rc.now st.rc - task.Task.run_start - bound in
          if overrun > 0 then begin
            Rc.rescued st.rc ex ~late:overrun;
            match Rc.depose st.rc ex ~overhead:0 with
            | Some t ->
                Rc.enqueue st.rc ~cpu:0 ~reason:Sched_ops.Enq_preempted t;
                reschedule st ex ~prev:t
            | None -> ()
          end
        end)
      st.execs
  in
  Rc.start_watchdog st.rc ~bound:(Some bound) scan;
  ignore
    (spawn st app ~name:"hog" ~service:(Time.us 400)
       (Coro.Compute (Time.us 400, fun () -> Coro.Exit)));
  Engine.run ~until:(Time.ms 2) st.engine;
  check bool "rescues counted" true (Rc.watchdog_rescues st.rc > 0);
  check bool "detection latency sampled" false
    (Histogram.is_empty (Rc.rescue_detection st.rc));
  let rescue_instants =
    Trace.fold trace
      (fun acc ev ->
        match ev with
        | Trace.Instant { kind = Trace.Watchdog_rescue; _ } -> acc + 1
        | _ -> acc)
      0
  in
  check int "one trace instant per rescue" (Rc.watchdog_rescues st.rc) rescue_instants;
  (* the rescued task still finishes, and its attribution still adds up *)
  check int "hog completed despite rescues" 1 (Summary.requests app.App.summary);
  check int "identity survives depose/requeue" 0
    (Attribution.mismatches app.App.attribution)

(* ---- BE occupancy and attachment validation ------------------------------- *)

let test_be_occupancy () =
  let st = make ~units:2 () in
  let be = Rc.new_app st.rc ~name:"batch" in
  Rc.attach_be_app st.rc be ~chunk:(Time.us 10) ~workers:2;
  check int "nothing running yet" 0 (Rc.be_occupancy st.rc);
  (* an assignment in flight counts as occupancy before it lands *)
  Rc.set_incoming st.rc st.execs.(0) be.App.id;
  check int "in-flight assignment counted" 1 (Rc.be_occupancy st.rc);
  Rc.set_incoming st.rc st.execs.(0) (-1);
  kick_all st;
  check int "both units running BE" 2 (Rc.be_occupancy st.rc);
  check bool "BE tasks recognised" true
    (Rc.is_be st.rc (Rc.current st.execs.(0)));
  check_raises "second BE app rejected"
    (Invalid_argument "Runtime_core.attach_be_app: BE app already set")
    (fun () -> Rc.attach_be_app st.rc be ~chunk:(Time.us 10) ~workers:1);
  (* an app from some other runtime's table is refused *)
  let foreign = App.create ~id:999 ~name:"foreign" in
  let st2 = make () in
  check_raises "foreign app rejected"
    (Invalid_argument "Runtime_core.attach_be_app: app not created by this runtime")
    (fun () -> Rc.attach_be_app st2.rc foreign ~chunk:(Time.us 10) ~workers:1)

(* ---- the runqueues ---------------------------------------------------------- *)

(* The four queue calls route by app and count only the LC side: BE work
   never reaches the policy or the count, a preempted BE task goes back
   to the head of the BE queue, a woken one kicks its last core, and an
   LC task killed while queued counts until [next_lc] discards it.  The
   count, the oldest wait and the depth series move together. *)
let test_runqueue_calls () =
  let st = make () in
  let rc = st.rc in
  let depth = Rc.watch_queue_depth rc in
  let lc = Rc.new_app rc ~name:"lc" in
  let be = Rc.new_app rc ~name:"batch" in
  (* routing needs only the BE app: attach it with no workers *)
  Rc.attach_be_app rc be ~chunk:(Time.us 10) ~workers:0;
  let mk (app : App.t) name =
    Task.create ~app:app.App.id ~name (Coro.compute_then_exit 1)
  in
  let name (task : Task.t) = task.Task.name in
  let b1 = mk be "b1" and b2 = mk be "b2" and b3 = mk be "b3" in
  Rc.enqueue rc ~cpu:0 ~reason:Sched_ops.Enq_yielded b1;
  Rc.enqueue rc ~cpu:0 ~reason:Sched_ops.Enq_preempted b2;
  b3.Task.last_core <- 3;
  check int "a woken BE task kicks its last core" 3 (Rc.place_woken rc ~waker_cpu:0 b3);
  check (list string) "preempted at the head, yielded and woken at the tail"
    [ "b2"; "b1"; "b3" ]
    (List.map name (Skyloft.Runqueue.to_list (Rc.be_queue rc)));
  check int "BE work is not counted" 0 (Rc.lc_queued rc);
  check (option string) "no BE task reached the policy" None
    (Option.map name (Rc.next_lc rc ~cpu:0 ~balance:false));
  let l1 = mk lc "l1" and l2 = mk lc "l2" in
  Rc.enqueue rc ~cpu:0 ~reason:Sched_ops.Enq_new l1;
  Engine.run ~until:(Time.us 5) st.engine;
  ignore (Rc.place_woken rc ~waker_cpu:0 l2);
  let congestion = Rc.congestion rc in
  check int "LC and BE backlog" (2 + 3) congestion.Rc.Allocator.runq_len;
  check int "oldest wait from the first stamp" (Time.us 5)
    congestion.Rc.Allocator.oldest_delay;
  Rc.kill rc l1;
  check int "a killed task counts until discarded" 2 (Rc.lc_queued rc);
  check (option string) "next_lc discards the killed task" (Some "l2")
    (Option.map name (Rc.next_lc rc ~cpu:0 ~balance:false));
  check bool "killed task exited" true (l1.Task.state = Task.Exited);
  check int "both exits counted" 0 (Rc.lc_queued rc);
  check int "no wait left" 0 (Rc.congestion rc).Rc.Allocator.oldest_delay;
  check (list int) "every change in the depth series" [ 1; 2; 1; 0 ]
    (List.map snd (Skyloft_stats.Timeseries.to_list depth));
  check (option string) "next_be takes the head" (Some "b2")
    (Option.map name (Rc.next_be rc))

(* Recording starts at the first watch: the queue changes before it are
   not kept, and the series opens with one sample of the depth at the
   watch, or none when the queue is empty.  Later watches return the same
   series, which records every change from then on. *)
let test_unwatched_records_nothing () =
  let traffic () =
    let st = make () in
    let lc = Rc.new_app st.rc ~name:"lc" in
    List.iter
      (fun name ->
        Rc.enqueue st.rc ~cpu:0 ~reason:Sched_ops.Enq_new
          (Task.create ~app:lc.App.id ~name (Coro.compute_then_exit 1)))
      [ "a"; "b"; "c" ];
    ignore (Rc.next_lc st.rc ~cpu:0 ~balance:false);
    Engine.run ~until:(Time.us 7) st.engine;
    st
  in
  let samples depth = Skyloft_stats.Timeseries.to_list depth in
  let st = traffic () in
  let depth = Rc.watch_queue_depth st.rc in
  check (list (pair int int)) "one sample: the depth at the watch"
    [ (Time.us 7, 2) ] (samples depth);
  check bool "a second watch returns the same series" true
    (Rc.watch_queue_depth st.rc == depth);
  ignore (Rc.next_lc st.rc ~cpu:0 ~balance:false);
  ignore (Rc.next_lc st.rc ~cpu:0 ~balance:false);
  check (list int) "every change after the watch" [ 2; 1; 0 ]
    (List.map snd (samples depth));
  let st = traffic () in
  ignore (Rc.next_lc st.rc ~cpu:0 ~balance:false);
  ignore (Rc.next_lc st.rc ~cpu:0 ~balance:false);
  check (list (pair int int)) "drained before the watch: no sample" []
    (samples (Rc.watch_queue_depth st.rc))

(* ---- the scheduler view ---------------------------------------------------- *)

(* The view is built once, by install_dispatch: asking for it earlier
   used to hand out a view with an empty [cores] array that a policy
   would then keep for good.  Units must sit on distinct cores, which
   the core -> unit index relies on. *)
let test_view_requires_dispatch () =
  let engine = Engine.create () in
  let machine =
    Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:4)
  in
  let rc = Rc.create machine (Kmod.create machine) in
  let no_dispatch = Invalid_argument "Runtime_core.view: no dispatch installed" in
  check_raises "view before install_dispatch" no_dispatch (fun () ->
      ignore (Rc.view rc));
  check_raises "policy before install_dispatch" no_dispatch (fun () ->
      Rc.install_policy rc (Skyloft_policies.Fifo.create ()));
  check_raises "two units on one core"
    (Invalid_argument "Runtime_core.install_dispatch: core 1 is not a distinct core id")
    (fun () ->
      Rc.install_dispatch rc
        { Rc.null_dispatch with d_units = Array.map Rc.make_exec [| 0; 1; 1 |] });
  Rc.install_dispatch rc
    { Rc.null_dispatch with d_units = Array.map Rc.make_exec [| 2; 0 |] };
  let view = Rc.view rc in
  check (array int) "cores in unit order" [| 2; 0 |] view.Sched_ops.cores;
  check (option int) "first idle unit, not lowest core id" (Some 2)
    (view.Sched_ops.pick_idle ());
  check bool "same view every time" true (Rc.view rc == view)

let suite =
  [
    test_case "find_app is exact over many apps" `Quick test_find_app_many;
    test_case "kthread is exact over many apps" `Quick test_kthread_many;
    test_case "lifecycle keeps the attribution identity" `Quick
      test_lifecycle_attribution;
    test_case "deadline kills in every state" `Quick test_deadline_kills;
    test_case "watchdog bookkeeping" `Quick test_watchdog_rescue;
    test_case "BE occupancy counts in-flight work" `Quick test_be_occupancy;
    test_case "runqueue calls route and count" `Quick test_runqueue_calls;
    test_case "an unwatched runtime records nothing" `Quick
      test_unwatched_records_nothing;
    test_case "view requires an installed dispatch" `Quick
      test_view_requires_dispatch;
  ]
