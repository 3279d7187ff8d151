(* Tests for the real effects-based user-level threading library. *)

module U = Skyloft_uthread.Uthread

let check = Alcotest.check

let test_run_main () =
  let ran = ref false in
  U.run (fun () -> ran := true);
  check Alcotest.bool "main ran" true !ran

let test_spawn_join () =
  let log = ref [] in
  U.run (fun () ->
      let t = U.spawn (fun () -> log := "child" :: !log) in
      U.join t;
      log := "after-join" :: !log);
  check (Alcotest.list Alcotest.string) "join ordering" [ "child"; "after-join" ]
    (List.rev !log)

let test_join_finished_thread () =
  U.run (fun () ->
      let t = U.spawn (fun () -> ()) in
      U.yield ();
      check Alcotest.bool "finished" true (U.finished t);
      U.join t (* immediate *))

let test_yield_interleaves () =
  let log = ref [] in
  U.run (fun () ->
      let emit tag n =
        for i = 1 to n do
          log := Printf.sprintf "%s%d" tag i :: !log;
          U.yield ()
        done
      in
      let a = U.spawn (fun () -> emit "a" 3) in
      let b = U.spawn (fun () -> emit "b" 3) in
      U.join a;
      U.join b);
  check (Alcotest.list Alcotest.string) "round robin"
    [ "a1"; "b1"; "a2"; "b2"; "a3"; "b3" ]
    (List.rev !log)

let test_self_id_unique () =
  let ids = ref [] in
  U.run (fun () ->
      let ts =
        List.init 5 (fun _ -> U.spawn (fun () -> ids := U.self_id () :: !ids))
      in
      List.iter U.join ts);
  let sorted = List.sort_uniq compare !ids in
  check Alcotest.int "5 distinct ids" 5 (List.length sorted)

let test_many_threads () =
  let count = ref 0 in
  U.run (fun () ->
      let ts = List.init 10_000 (fun _ -> U.spawn (fun () -> incr count)) in
      List.iter U.join ts);
  check Alcotest.int "10k threads" 10_000 !count

let test_mutex_mutual_exclusion () =
  let m = U.Mutex.create () in
  let inside = ref 0 and max_inside = ref 0 in
  U.run (fun () ->
      let worker () =
        U.Mutex.lock m;
        incr inside;
        if !inside > !max_inside then max_inside := !inside;
        U.yield ();
        (* still exclusive across the yield *)
        decr inside;
        U.Mutex.unlock m
      in
      let ts = List.init 10 (fun _ -> U.spawn worker) in
      List.iter U.join ts);
  check Alcotest.int "never two inside" 1 !max_inside

let test_mutex_fifo_handoff () =
  let m = U.Mutex.create () in
  let order = ref [] in
  U.run (fun () ->
      U.Mutex.lock m;
      let ts =
        List.init 3 (fun i ->
            U.spawn (fun () ->
                U.Mutex.lock m;
                order := i :: !order;
                U.Mutex.unlock m))
      in
      U.yield ();
      (* all three are queued on the mutex in spawn order *)
      U.Mutex.unlock m;
      List.iter U.join ts);
  check (Alcotest.list Alcotest.int) "FIFO" [ 0; 1; 2 ] (List.rev !order)

let test_mutex_unlock_unlocked () =
  U.run (fun () ->
      let m = U.Mutex.create () in
      check Alcotest.bool "raises" true
        (try
           U.Mutex.unlock m;
           false
         with Invalid_argument _ -> true))

let test_condvar_signal () =
  let m = U.Mutex.create () and cv = U.Condvar.create () in
  let ready = ref false and got = ref false in
  U.run (fun () ->
      let waiter =
        U.spawn (fun () ->
            U.Mutex.lock m;
            while not !ready do
              U.Condvar.wait cv m
            done;
            got := true;
            U.Mutex.unlock m)
      in
      U.yield ();
      U.Mutex.lock m;
      ready := true;
      U.Condvar.signal cv;
      U.Mutex.unlock m;
      U.join waiter);
  check Alcotest.bool "condvar woke waiter" true !got

let test_condvar_broadcast () =
  let m = U.Mutex.create () and cv = U.Condvar.create () in
  let go = ref false and woken = ref 0 in
  U.run (fun () ->
      let ts =
        List.init 5 (fun _ ->
            U.spawn (fun () ->
                U.Mutex.lock m;
                while not !go do
                  U.Condvar.wait cv m
                done;
                incr woken;
                U.Mutex.unlock m))
      in
      U.yield ();
      U.Mutex.lock m;
      go := true;
      U.Condvar.broadcast cv;
      U.Mutex.unlock m;
      List.iter U.join ts);
  check Alcotest.int "all woken" 5 !woken

let test_condvar_signal_no_waiter () =
  U.run (fun () ->
      let cv = U.Condvar.create () in
      U.Condvar.signal cv;
      U.Condvar.broadcast cv)

let test_deadlock_detection () =
  check Alcotest.bool "deadlock raises" true
    (try
       U.run (fun () ->
           let m = U.Mutex.create () in
           U.Mutex.lock m;
           (* lock it again: self-deadlock *)
           U.Mutex.lock m);
       false
     with U.Deadlock _ -> true)

let test_producer_consumer () =
  (* Bounded buffer with two condvars: a classic integration check. *)
  let m = U.Mutex.create () in
  let not_full = U.Condvar.create () and not_empty = U.Condvar.create () in
  let buf = Queue.create () and capacity = 4 in
  let produced = 200 and consumed = ref 0 and sum = ref 0 in
  U.run (fun () ->
      let producer =
        U.spawn (fun () ->
            for i = 1 to produced do
              U.Mutex.lock m;
              while Queue.length buf >= capacity do
                U.Condvar.wait not_full m
              done;
              Queue.push i buf;
              U.Condvar.signal not_empty;
              U.Mutex.unlock m
            done)
      in
      let consumer =
        U.spawn (fun () ->
            while !consumed < produced do
              U.Mutex.lock m;
              while Queue.is_empty buf do
                U.Condvar.wait not_empty m
              done;
              sum := !sum + Queue.pop buf;
              incr consumed;
              U.Condvar.signal not_full;
              U.Mutex.unlock m
            done)
      in
      U.join producer;
      U.join consumer);
  check Alcotest.int "all items" produced !consumed;
  check Alcotest.int "sum" (produced * (produced + 1) / 2) !sum

let test_operations_outside_run () =
  check Alcotest.bool "yield outside run raises" true
    (try
       U.yield ();
       false
     with Invalid_argument _ | Effect.Unhandled _ -> true)

let suite =
  [
    Alcotest.test_case "run main" `Quick test_run_main;
    Alcotest.test_case "spawn + join" `Quick test_spawn_join;
    Alcotest.test_case "join finished" `Quick test_join_finished_thread;
    Alcotest.test_case "yield interleaves" `Quick test_yield_interleaves;
    Alcotest.test_case "self ids unique" `Quick test_self_id_unique;
    Alcotest.test_case "10k threads" `Quick test_many_threads;
    Alcotest.test_case "mutex exclusion" `Quick test_mutex_mutual_exclusion;
    Alcotest.test_case "mutex FIFO" `Quick test_mutex_fifo_handoff;
    Alcotest.test_case "mutex unlock unlocked" `Quick test_mutex_unlock_unlocked;
    Alcotest.test_case "condvar signal" `Quick test_condvar_signal;
    Alcotest.test_case "condvar broadcast" `Quick test_condvar_broadcast;
    Alcotest.test_case "condvar no waiter" `Quick test_condvar_signal_no_waiter;
    Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
    Alcotest.test_case "producer/consumer" `Quick test_producer_consumer;
    Alcotest.test_case "ops outside run" `Quick test_operations_outside_run;
  ]
