(* Tests for the simulated-runtime synchronization primitives (Sync) and
   the POSIX facade over real uthreads (Pthread_compat). *)

module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Coro = Skyloft_sim.Coro
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Kmod = Skyloft_kernel.Kmod
module Percpu = Skyloft.Percpu
module Sync = Skyloft.Sync
module Task = Skyloft.Task
module P = Skyloft_uthread.Pthread_compat
module Rc = Skyloft.Runtime_core

let check = Alcotest.check

let make_rt ?(cores = 2) () =
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:4) in
  let kmod = Kmod.create machine in
  let rt =
    Percpu.runtime
      (Percpu.create machine kmod ~cores:(List.init cores Fun.id) ~preemption:false
         (Skyloft_policies.Fifo.create ()))
  in
  let app = Rc.create_app rt ~name:"sync" in
  (engine, rt, app)

(* ---- Sem ---- *)

let test_sem_immediate_acquire () =
  let engine, rt, app = make_rt () in
  let sem = Sync.Sem.create rt 2 in
  let acquired = ref 0 in
  for _ = 1 to 2 do
    let self = ref None in
    let body =
      Sync.deferred (fun () ->
          Sync.Sem.wait sem self (fun () ->
              incr acquired;
              Coro.Exit))
    in
    self := Some (Rc.spawn rt app ~name:"w" body)
  done;
  Engine.run ~until:(Time.ms 1) engine;
  check Alcotest.int "both acquired immediately" 2 !acquired;
  check Alcotest.int "count drained" 0 (Sync.Sem.count sem)

let test_sem_blocks_until_post () =
  let engine, rt, app = make_rt () in
  let sem = Sync.Sem.create rt 0 in
  let acquired_at = ref 0 in
  let self = ref None in
  let body =
    Sync.deferred (fun () ->
        Sync.Sem.wait sem self (fun () ->
            acquired_at := Engine.now engine;
            Coro.Exit))
  in
  self := Some (Rc.spawn rt app ~name:"w" body);
  ignore (Engine.at engine (Time.us 100) (fun () -> Sync.Sem.post sem));
  Engine.run ~until:(Time.ms 1) engine;
  check Alcotest.bool "acquired only after post" true (!acquired_at >= Time.us 100)

let test_sem_fifo_wakeups () =
  let engine, rt, app = make_rt ~cores:4 () in
  let sem = Sync.Sem.create rt 0 in
  let order = ref [] in
  for i = 1 to 3 do
    let self = ref None in
    let body =
      Sync.deferred (fun () ->
          Sync.Sem.wait sem self (fun () ->
              order := i :: !order;
              Coro.Exit))
    in
    self := Some (Rc.spawn rt app ~name:(string_of_int i) body)
  done;
  ignore
    (Engine.at engine (Time.us 10) (fun () ->
         Sync.Sem.post sem;
         Sync.Sem.post sem;
         Sync.Sem.post sem));
  Engine.run ~until:(Time.ms 1) engine;
  check (Alcotest.list Alcotest.int) "FIFO order" [ 1; 2; 3 ] (List.rev !order)

(* ---- Waitgroup ---- *)

let test_waitgroup () =
  let engine, rt, app = make_rt ~cores:4 () in
  let wg = Sync.Waitgroup.create rt () in
  Sync.Waitgroup.add wg 3;
  let done_at = ref 0 and finish_times = ref [] in
  for i = 1 to 3 do
    ignore
      (Rc.spawn rt app ~name:(string_of_int i)
         (Coro.Compute
            ( Time.us (i * 10),
              fun () ->
                finish_times := Engine.now engine :: !finish_times;
                Sync.Waitgroup.finish wg;
                Coro.Exit )))
  done;
  let self = ref None in
  let body =
    Sync.deferred (fun () ->
        Sync.Waitgroup.wait wg self (fun () ->
            done_at := Engine.now engine;
            Coro.Exit))
  in
  self := Some (Rc.spawn rt app ~name:"waiter" body);
  Engine.run ~until:(Time.ms 1) engine;
  check Alcotest.bool "waiter resumed after all finishes" true
    (!done_at >= Time.us 30);
  check Alcotest.int "pending zero" 0 (Sync.Waitgroup.pending wg)

let test_waitgroup_wait_when_zero () =
  let engine, rt, app = make_rt () in
  let wg = Sync.Waitgroup.create rt () in
  let ran = ref false in
  let self = ref None in
  let body =
    Sync.deferred (fun () ->
        Sync.Waitgroup.wait wg self (fun () -> ran := true; Coro.Exit))
  in
  self := Some (Rc.spawn rt app ~name:"w" body);
  Engine.run ~until:(Time.ms 1) engine;
  check Alcotest.bool "immediate when zero" true !ran

let test_waitgroup_underflow () =
  let _, rt, _ = make_rt () in
  let wg = Sync.Waitgroup.create rt () in
  check Alcotest.bool "underflow raises" true
    (try
       Sync.Waitgroup.finish wg;
       false
     with Invalid_argument _ -> true)

(* ---- Chan ---- *)

let test_chan_pipeline () =
  let engine, rt, app = make_rt ~cores:2 () in
  let chan = Sync.Chan.create rt ~capacity:2 in
  let received = ref [] in
  (* producer: send 5 values with some compute between *)
  let pself = ref None in
  let rec produce i () =
    if i > 5 then Coro.Exit
    else
      Coro.Compute
        ( Time.us 5,
          fun () -> Sync.Chan.send chan pself i (produce (i + 1)) )
  in
  pself := Some (Rc.spawn rt app ~name:"producer" (Sync.deferred (produce 1)));
  (* consumer: receive 5 values, slower than the producer *)
  let cself = ref None in
  let rec consume n () =
    if n = 0 then Coro.Exit
    else
      Sync.Chan.recv chan cself (fun v ->
          received := v :: !received;
          Coro.Compute (Time.us 20, consume (n - 1)))
  in
  cself := Some (Rc.spawn rt app ~name:"consumer" (Sync.deferred (consume 5)));
  Engine.run ~until:(Time.ms 2) engine;
  check (Alcotest.list Alcotest.int) "in order, none lost" [ 1; 2; 3; 4; 5 ]
    (List.rev !received);
  check Alcotest.int "channel drained" 0 (Sync.Chan.length chan)

(* ---- Pthread_compat ---- *)

let test_pthread_facade () =
  let module U = Skyloft_uthread.Uthread in
  let log = ref [] in
  U.run (fun () ->
      let m = P.pthread_mutex_init () in
      let cv = P.pthread_cond_init () in
      let ready = ref false in
      let t =
        P.pthread_create (fun () ->
            P.pthread_mutex_lock m;
            while not !ready do
              P.pthread_cond_wait cv m
            done;
            log := "woken" :: !log;
            P.pthread_mutex_unlock m)
      in
      P.pthread_yield ();
      P.pthread_mutex_lock m;
      ready := true;
      P.pthread_cond_signal cv;
      P.pthread_mutex_unlock m;
      P.pthread_join t;
      log := "joined" :: !log);
  check (Alcotest.list Alcotest.string) "posix flow" [ "woken"; "joined" ]
    (List.rev !log)

let test_pthread_trylock () =
  let module U = Skyloft_uthread.Uthread in
  U.run (fun () ->
      let m = P.pthread_mutex_init () in
      check Alcotest.bool "trylock" true (P.pthread_mutex_trylock m);
      check Alcotest.bool "second fails" false (P.pthread_mutex_trylock m);
      P.pthread_mutex_unlock m)

(* The rest of the facade: a broadcast wakes every waiter, and
   [pthread_exit] hands the CPU to the other runnable threads before the
   body unwinds. *)
let test_pthread_broadcast_and_exit () =
  let module U = Skyloft_uthread.Uthread in
  let woken = ref [] and order = ref [] in
  U.run (fun () ->
      let m = P.pthread_mutex_init () in
      let cv = P.pthread_cond_init () in
      let ready = ref false in
      let waiters =
        List.init 3 (fun i ->
            P.pthread_create (fun () ->
                P.pthread_mutex_lock m;
                while not !ready do
                  P.pthread_cond_wait cv m
                done;
                woken := i :: !woken;
                P.pthread_mutex_unlock m))
      in
      P.pthread_yield ();
      P.pthread_mutex_lock m;
      ready := true;
      P.pthread_cond_broadcast cv;
      P.pthread_mutex_unlock m;
      List.iter P.pthread_join waiters;
      let a =
        P.pthread_create (fun () ->
            order := "a" :: !order;
            P.pthread_exit ();
            order := "a unwinds" :: !order)
      in
      let b = P.pthread_create (fun () -> order := "b" :: !order) in
      P.pthread_join a;
      P.pthread_join b);
  check (Alcotest.list Alcotest.int) "broadcast wakes all" [ 0; 1; 2 ]
    (List.sort compare !woken);
  check (Alcotest.list Alcotest.string) "exit yields first" [ "a"; "b"; "a unwinds" ]
    (List.rev !order)

let suite =
  [
    Alcotest.test_case "sem: immediate" `Quick test_sem_immediate_acquire;
    Alcotest.test_case "sem: blocks until post" `Quick test_sem_blocks_until_post;
    Alcotest.test_case "sem: FIFO wakeups" `Quick test_sem_fifo_wakeups;
    Alcotest.test_case "waitgroup: waits for all" `Quick test_waitgroup;
    Alcotest.test_case "waitgroup: zero immediate" `Quick test_waitgroup_wait_when_zero;
    Alcotest.test_case "waitgroup: underflow" `Quick test_waitgroup_underflow;
    Alcotest.test_case "chan: pipeline" `Quick test_chan_pipeline;
    Alcotest.test_case "pthread: facade" `Quick test_pthread_facade;
    Alcotest.test_case "pthread: trylock" `Quick test_pthread_trylock;
    Alcotest.test_case "pthread: broadcast and exit" `Quick test_pthread_broadcast_and_exit;
  ]
