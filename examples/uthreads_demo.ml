(* Real user-level threads (OCaml 5 effect handlers): the live counterpart
   of the simulated LibOS.

   First a tiny pipeline — producers, a bounded queue, consumers — entirely
   in user space: no kernel threads, no syscalls, cooperative scheduling.
   Then Table 7's measured Skyloft column: the per-operation cost of yield,
   spawn, mutex and condvar on this host, timed in batches of 1,000
   operations (one [Uthread.run] each, so its setup is amortised) and
   reported as the median over the repeats.

     dune exec examples/uthreads_demo.exe *)

module U = Skyloft_uthread.Uthread

let pipeline () =
  let m = U.Mutex.create () in
  let not_full = U.Condvar.create () and not_empty = U.Condvar.create () in
  let buf = Queue.create () and capacity = 8 in
  let produced = ref 0 and consumed = ref 0 in
  let items_per_producer = 10_000 and producers = 4 and consumers = 2 in
  let total = producers * items_per_producer in

  let producer id () =
    for i = 1 to items_per_producer do
      U.Mutex.lock m;
      while Queue.length buf >= capacity do
        U.Condvar.wait not_full m
      done;
      Queue.push (id, i) buf;
      incr produced;
      U.Condvar.signal not_empty;
      U.Mutex.unlock m
    done
  in
  let consumer () =
    while !consumed < total do
      U.Mutex.lock m;
      while Queue.is_empty buf && !consumed < total do
        if !produced >= total && Queue.is_empty buf then ()
        else U.Condvar.wait not_empty m
      done;
      (match Queue.take_opt buf with
      | Some _ -> incr consumed
      | None -> ());
      U.Condvar.signal not_full;
      U.Mutex.unlock m
    done;
    (* wake any sibling still waiting *)
    U.Condvar.broadcast not_empty
  in

  let t0 = Sys.time () in
  U.run (fun () ->
      let ps = List.init producers (fun i -> U.spawn (producer i)) in
      let cs = List.init consumers (fun _ -> U.spawn consumer) in
      List.iter U.join ps;
      List.iter U.join cs);
  let dt = Sys.time () -. t0 in
  Printf.printf "pipelined %d items through %d producers / %d consumers\n" !consumed
    producers consumers;
  Printf.printf "%.2f us per item end-to-end, all in user space\n"
    (dt *. 1e6 /. float_of_int total);
  Printf.printf
    "=> every lock, wait, signal and switch here is a function call, not a syscall\n"

(* ---- Table 7: per-operation cost ---- *)

let ops = 1_000
let repeats = 31

let yield_batch () =
  U.run (fun () ->
      U.join
        (U.spawn (fun () ->
             for _ = 1 to ops do
               U.yield ()
             done)))

let spawn_batch () =
  U.run (fun () ->
      for _ = 1 to ops do
        ignore (U.spawn ignore)
      done)

let mutex_batch () =
  let m = U.Mutex.create () in
  U.run (fun () ->
      for _ = 1 to ops do
        U.Mutex.lock m;
        U.Mutex.unlock m
      done)

(* A waiter parks on the condvar; the main thread yields to it and
   signals, [ops] times over. *)
let condvar_batch () =
  let m = U.Mutex.create () and cv = U.Condvar.create () in
  U.run (fun () ->
      let waiter =
        U.spawn (fun () ->
            U.Mutex.lock m;
            for _ = 1 to ops do
              U.Condvar.wait cv m
            done;
            U.Mutex.unlock m)
      in
      for _ = 1 to ops do
        U.yield ();
        U.Condvar.signal cv
      done;
      U.join waiter)

let median_ns_per_op batch =
  batch ();
  let samples =
    Array.init repeats (fun _ ->
        let t0 = Unix.gettimeofday () in
        batch ();
        (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int ops)
  in
  Array.sort Float.compare samples;
  samples.(repeats / 2)

let table7 () =
  Printf.printf "\nTable 7 (measured): ns per operation, median of %d batches of %d\n"
    repeats ops;
  Printf.printf "%-10s %12s %12s\n" "operation" "this host" "paper";
  List.iter
    (fun (name, batch, paper) ->
      Printf.printf "%-10s %12.0f %12d\n" name (median_ns_per_op batch) paper)
    [
      ("yield", yield_batch, 37);
      ("spawn", spawn_batch, 191);
      ("mutex", mutex_batch, 27);
      ("condvar", condvar_batch, 86);
    ];
  Printf.printf
    "=> tens to hundreds of ns, far below pthread spawn (15,418 ns) and condvar (2,532 ns)\n"

let () =
  pipeline ();
  table7 ()
