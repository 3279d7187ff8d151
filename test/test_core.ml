(* Tests for the Skyloft core: tasks, runqueues, the per-CPU runtime
   (timer delegation, preemption, multi-app switching) and the centralized
   runtime (dispatcher, quantum preemption, BE co-scheduling). *)

module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Coro = Skyloft_sim.Coro
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Costs = Skyloft_hw.Costs
module Kmod = Skyloft_kernel.Kmod
module Histogram = Skyloft_stats.Histogram
module Summary = Skyloft_stats.Summary
module Task = Skyloft.Task
module Runqueue = Skyloft.Runqueue
module Sched_ops = Skyloft.Sched_ops
module App = Skyloft.App
module Percpu = Skyloft.Percpu
module Hybrid = Skyloft.Hybrid
module Rc = Skyloft.Runtime_core

let check = Alcotest.check

(* ---- Runqueue ---- *)

let mk_task name = Task.create ~app:1 ~name Coro.Exit

let test_runqueue_fifo () =
  let q = Runqueue.create () in
  let a = mk_task "a" and b = mk_task "b" and c = mk_task "c" in
  Runqueue.push_tail q a;
  Runqueue.push_tail q b;
  Runqueue.push_head q c;
  check Alcotest.int "length" 3 (Runqueue.length q);
  check (Alcotest.list Alcotest.string) "order c a b" [ "c"; "a"; "b" ]
    (List.map (fun (t : Task.t) -> t.name) (Runqueue.to_list q));
  check Alcotest.string "pop head" "c"
    (match Runqueue.pop_head q with Some t -> t.Task.name | None -> "?");
  check Alcotest.string "pop tail" "b"
    (match Runqueue.pop_tail q with Some t -> t.Task.name | None -> "?");
  check Alcotest.int "one left" 1 (Runqueue.length q)

let test_runqueue_remove () =
  let q = Runqueue.create () in
  let a = mk_task "a" and b = mk_task "b" and c = mk_task "c" in
  List.iter (Runqueue.push_tail q) [ a; b; c ];
  check Alcotest.bool "remove middle" true (Runqueue.remove q b);
  check Alcotest.bool "remove again is false" false (Runqueue.remove q b);
  check (Alcotest.list Alcotest.string) "a c left" [ "a"; "c" ]
    (List.map (fun (t : Task.t) -> t.name) (Runqueue.to_list q))

let test_runqueue_double_insert_rejected () =
  let q = Runqueue.create () in
  let a = mk_task "a" in
  Runqueue.push_tail q a;
  check Alcotest.bool "double insert raises" true
    (try
       Runqueue.push_tail q a;
       false
     with Invalid_argument _ -> true)

let rq_names q = List.map (fun (t : Task.t) -> t.name) (Runqueue.to_list q)

let test_runqueue_pop_tail_drain () =
  let q = Runqueue.create () in
  List.iter (fun n -> Runqueue.push_tail q (mk_task n)) [ "a"; "b"; "c" ];
  let pop () =
    match Runqueue.pop_tail q with Some t -> t.Task.name | None -> "-"
  in
  let p1 = pop () in
  let p2 = pop () in
  let p3 = pop () in
  let p4 = pop () in
  check (Alcotest.list Alcotest.string) "tail-first drain then empty"
    [ "c"; "b"; "a"; "-" ] [ p1; p2; p3; p4 ];
  check Alcotest.bool "empty after drain" true (Runqueue.is_empty q)

let test_runqueue_remove_ends () =
  let q = Runqueue.create () in
  let a = mk_task "a" and b = mk_task "b" and c = mk_task "c" in
  List.iter (Runqueue.push_tail q) [ a; b; c ];
  check Alcotest.bool "remove head" true (Runqueue.remove q a);
  check (Alcotest.list Alcotest.string) "b c left" [ "b"; "c" ] (rq_names q);
  check Alcotest.bool "remove tail" true (Runqueue.remove q c);
  check (Alcotest.list Alcotest.string) "b left" [ "b" ] (rq_names q);
  check Alcotest.bool "remove last" true (Runqueue.remove q b);
  check Alcotest.bool "empty" true (Runqueue.is_empty q);
  check Alcotest.bool "remove from empty is false" false (Runqueue.remove q b)

let test_runqueue_repush_after_remove () =
  let q = Runqueue.create () in
  let a = mk_task "a" and b = mk_task "b" in
  List.iter (Runqueue.push_tail q) [ a; b ];
  check Alcotest.bool "remove a" true (Runqueue.remove q a);
  (* a removed task is fully unlinked: re-pushing must not raise and must
     land at the requested end *)
  Runqueue.push_tail q a;
  check (Alcotest.list Alcotest.string) "b a after re-push" [ "b"; "a" ]
    (rq_names q);
  check Alcotest.bool "remove b" true (Runqueue.remove q b);
  Runqueue.push_head q b;
  check (Alcotest.list Alcotest.string) "b a after head re-push" [ "b"; "a" ]
    (rq_names q)

let test_runqueue_steal_half () =
  let victim = Runqueue.create () and thief = Runqueue.create () in
  (* owner-head LIFO: push_head in arrival order, so the tail is oldest *)
  List.iter (fun n -> Runqueue.push_head victim (mk_task n)) [ "t1"; "t2"; "t3"; "t4"; "t5" ];
  let moved = Runqueue.steal_half ~from:victim ~into:thief in
  check Alcotest.int "ceil(5/2) moved" 3 moved;
  check (Alcotest.list Alcotest.string) "victim keeps the newest"
    [ "t5"; "t4" ] (rq_names victim);
  check (Alcotest.list Alcotest.string) "thief got the oldest, oldest-first"
    [ "t1"; "t2"; "t3" ] (rq_names thief);
  (* a single queued task is stealable (rounding up) *)
  let v1 = Runqueue.create () and th1 = Runqueue.create () in
  Runqueue.push_head v1 (mk_task "solo");
  check Alcotest.int "1 of 1 moved" 1 (Runqueue.steal_half ~from:v1 ~into:th1);
  check Alcotest.bool "victim empty" true (Runqueue.is_empty v1);
  check Alcotest.int "nothing to steal from empty" 0
    (Runqueue.steal_half ~from:v1 ~into:th1)

(* Model test: steal-half against a plain-list reference.  The victim is
   an owner-head LIFO deque holding tasks 1..n (n from the generator); the
   reference splits the arrival-ordered list — the thief must get the
   oldest ceil(n/2) in arrival order, the victim must keep the newest
   floor(n/2) in LIFO order. *)
let prop_runqueue_steal_half_model =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"steal-half matches the list model" ~count:100
       QCheck.(int_bound 40)
       (fun n ->
         let victim = Runqueue.create () and thief = Runqueue.create () in
         let arrival = List.init n (fun i -> Printf.sprintf "m%d" i) in
         List.iter (fun name -> Runqueue.push_head victim (mk_task name)) arrival;
         let moved = Runqueue.steal_half ~from:victim ~into:thief in
         let want = (n + 1) / 2 in
         let expect_thief = List.filteri (fun i _ -> i < want) arrival in
         let expect_victim =
           List.rev (List.filteri (fun i _ -> i >= want) arrival)
         in
         moved = want
         && rq_names thief = expect_thief
         && rq_names victim = expect_victim
         && Runqueue.length victim + Runqueue.length thief = n))

let prop_runqueue_fifo_order =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"runqueue preserves FIFO order" ~count:100
       QCheck.(small_list small_int)
       (fun xs ->
         let q = Runqueue.create () in
         let tasks = List.map (fun x -> (x, mk_task (string_of_int x))) xs in
         List.iter (fun (_, t) -> Runqueue.push_tail q t) tasks;
         let rec drain acc =
           match Runqueue.pop_head q with
           | Some t -> drain (t.Task.name :: acc)
           | None -> List.rev acc
         in
         drain [] = List.map (fun (_, t) -> t.Task.name) tasks))

(* A task is in at most one runqueue: pushing one queued elsewhere
   raises and leaves both queues as they were, and [remove] on a queue
   that does not hold the task is [false] and touches neither. *)
let test_runqueue_one_queue_per_task () =
  let q = Runqueue.create () and r = Runqueue.create () in
  let a = mk_task "a" and b = mk_task "b" and c = mk_task "c" in
  List.iter (Runqueue.push_tail q) [ a; b ];
  Runqueue.push_tail r c;
  let raises f = try f (); false with Invalid_argument _ -> true in
  check Alcotest.bool "push_tail of a task queued elsewhere raises" true
    (raises (fun () -> Runqueue.push_tail r a));
  check Alcotest.bool "push_head of a task queued elsewhere raises" true
    (raises (fun () -> Runqueue.push_head r b));
  check Alcotest.bool "remove of another queue's task is false" false
    (Runqueue.remove r a);
  check Alcotest.bool "remove of a never-queued task is false" false
    (Runqueue.remove q (mk_task "d"));
  check (Alcotest.list Alcotest.string) "first queue intact" [ "a"; "b" ] (rq_names q);
  check (Alcotest.list Alcotest.string) "second queue intact" [ "c" ] (rq_names r);
  check Alcotest.int "lengths intact" 3 (Runqueue.length q + Runqueue.length r);
  check Alcotest.bool "moved after removal" true (Runqueue.remove q a);
  Runqueue.push_head r a;
  check (Alcotest.list Alcotest.string) "a now heads the second queue" [ "a"; "c" ]
    (rq_names r)

(* Random scripts over two queues against a pair of lists.  Pushing a task
   that either list holds must raise and change nothing; [remove] must
   answer whether the named queue's list holds the task; [steal_half]
   moves the ceil(n/2) tail tasks, tail first, onto the other's tail.
   The pool is three times a ring's initial 8 slots, so scripts push at
   both ends across index 0, grow wrapped rings and steal from them. *)
type rq_op =
  | Push_head of int * int
  | Push_tail of int * int
  | Pop_head of int
  | Pop_tail of int
  | Remove of int * int
  | Steal of int
  | Iter of int

let rq_pool = 24

let rq_op_gen =
  QCheck.Gen.(
    let q = int_bound 1 and task = int_bound (rq_pool - 1) in
    frequency
      [
        (3, map2 (fun q t -> Push_head (q, t)) q task);
        (3, map2 (fun q t -> Push_tail (q, t)) q task);
        (1, map (fun q -> Pop_head q) q);
        (1, map (fun q -> Pop_tail q) q);
        (2, map2 (fun q t -> Remove (q, t)) q task);
        (1, map (fun q -> Steal q) q);
        (1, map (fun q -> Iter q) q);
      ])

let prop_runqueue_model =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"runqueue: two queues match the list model" ~count:300
       (QCheck.make
          ~print:(fun ops -> Printf.sprintf "%d ops" (List.length ops))
          QCheck.Gen.(list_size (int_range 1 150) rq_op_gen))
       (fun ops ->
         let tasks = Array.init rq_pool (fun i -> mk_task (string_of_int i)) in
         let qs = [| Runqueue.create (); Runqueue.create () |] in
         let model = [| []; [] |] in
         let queued t = Array.exists (List.memq tasks.(t)) model in
         let push q t ~head =
           let raised =
             try
               (if head then Runqueue.push_head else Runqueue.push_tail) qs.(q) tasks.(t);
               false
             with Invalid_argument _ -> true
           in
           if queued t then raised
           else begin
             model.(q) <- (if head then tasks.(t) :: model.(q) else model.(q) @ [ tasks.(t) ]);
             not raised
           end
         in
         let pop q ~head =
           let got = (if head then Runqueue.pop_head else Runqueue.pop_tail) qs.(q) in
           match (if head then model.(q) else List.rev model.(q)) with
           | [] -> got = None
           | x :: rest ->
               model.(q) <- (if head then rest else List.rev rest);
               (match got with Some y -> y == x | None -> false)
         in
         let step = function
           | Push_head (q, t) -> push q t ~head:true
           | Push_tail (q, t) -> push q t ~head:false
           | Pop_head q -> pop q ~head:true
           | Pop_tail q -> pop q ~head:false
           | Remove (q, t) ->
               let member = List.memq tasks.(t) model.(q) in
               model.(q) <- List.filter (fun x -> x != tasks.(t)) model.(q);
               Runqueue.remove qs.(q) tasks.(t) = member
           | Steal q ->
               let n = List.length model.(q) in
               let want = (n + 1) / 2 in
               let stolen = List.rev (List.filteri (fun i _ -> i >= n - want) model.(q)) in
               model.(q) <- List.filteri (fun i _ -> i < n - want) model.(q);
               model.(1 - q) <- model.(1 - q) @ stolen;
               Runqueue.steal_half ~from:qs.(q) ~into:qs.(1 - q) = want
           | Iter q ->
               let seen = ref [] in
               Runqueue.iter (fun t -> seen := t :: !seen) qs.(q);
               List.for_all2 ( == ) (List.rev !seen) model.(q)
         in
         let agrees q =
           Runqueue.length qs.(q) = List.length model.(q)
           && List.for_all2 ( == ) (Runqueue.to_list qs.(q)) model.(q)
         in
         List.for_all (fun op -> step op && agrees 0 && agrees 1) ops))

(* The ring's edges, step by step: head pushes wrap below index 0, a push
   into a full wrapped ring doubles it, and a steal takes the tail half of
   a wrapped ring tail first.  Each step is checked against the list. *)
let test_runqueue_ring_wraps () =
  let q = Runqueue.create () and r = Runqueue.create () in
  let tasks = Array.init 20 (fun i -> mk_task (Printf.sprintf "w%d" i)) in
  let names l = List.map (fun i -> tasks.(i).Task.name) l in
  let expect what q l = check (Alcotest.list Alcotest.string) what (names l) (rq_names q) in
  (* 3 at the tail, 5 at the head: the head wraps to the top of 8 slots *)
  List.iter (fun i -> Runqueue.push_tail q tasks.(i)) [ 0; 1; 2 ];
  List.iter (fun i -> Runqueue.push_head q tasks.(i)) [ 3; 4; 5; 6; 7 ];
  expect "full and wrapped" q [ 7; 6; 5; 4; 3; 0; 1; 2 ];
  (* the ninth push grows the wrapped ring, at either end *)
  Runqueue.push_head q tasks.(8);
  Runqueue.push_tail q tasks.(9);
  expect "grown while wrapped" q [ 8; 7; 6; 5; 4; 3; 0; 1; 2; 9 ];
  (* drain from the head past the old wrap point, refill at the tail *)
  for _ = 1 to 6 do
    ignore (Runqueue.pop_head q)
  done;
  List.iter (fun i -> Runqueue.push_tail q tasks.(i)) [ 10; 11; 12; 13; 14; 15; 16; 17; 18 ];
  expect "wrapped after growth" q [ 0; 1; 2; 9; 10; 11; 12; 13; 14; 15; 16; 17; 18 ];
  (* the thief takes the 7 oldest (tail) tasks, oldest-first *)
  Runqueue.push_head r tasks.(19);
  check Alcotest.int "ceil(13/2) moved" 7 (Runqueue.steal_half ~from:q ~into:r);
  expect "victim keeps its head half" q [ 0; 1; 2; 9; 10; 11 ];
  expect "thief appends the tail half, tail first" r [ 19; 18; 17; 16; 15; 14; 13; 12 ];
  check Alcotest.bool "a removal inside the wrapped thief" true
    (Runqueue.remove r tasks.(16));
  expect "thief after removal" r [ 19; 18; 17; 15; 14; 13; 12 ];
  check Alcotest.string "pop_tail after the steal" "w11"
    (match Runqueue.pop_tail q with Some t -> t.Task.name | None -> "-")

(* Steady state allocates nothing but the [Some] box of each pop: two
   words.  The slack covers the boxed float [Gc.minor_words] returns. *)
let test_runqueue_zero_alloc () =
  let q = Runqueue.create () and r = Runqueue.create () in
  let tasks = Array.init 8 (fun i -> mk_task (string_of_int i)) in
  let round () =
    for i = 0 to 7 do
      Runqueue.push_head q tasks.(i)
    done;
    ignore (Runqueue.remove q tasks.(3));
    Runqueue.push_tail q tasks.(3);
    ignore (Runqueue.steal_half ~from:q ~into:r);
    ignore (Runqueue.steal_half ~from:r ~into:q);
    (* 6 tasks are left in [q] and 2 in [r] *)
    for _ = 1 to 3 do
      ignore (Runqueue.pop_head q);
      ignore (Runqueue.pop_tail q)
    done;
    ignore (Runqueue.pop_head r);
    ignore (Runqueue.pop_tail r)
  in
  round ();
  let rounds = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    round ()
  done;
  let words = Gc.minor_words () -. before in
  let pops = float_of_int (8 * rounds) in
  if words > (2.0 *. pops) +. 64.0 then
    Alcotest.failf
      "%d rounds of 9 pushes, a remove, 2 steals and 8 pops allocated %.0f minor \
       words (%.0f for the pops' boxes)"
      rounds words (2.0 *. pops)

(* ---- Deques: the non-empty mask against the probing scan ---- *)

module Deques = Skyloft.Deques

(* The victim scan as work stealing ran it before the mask: probe deque
   after deque from the thief's cursor, over the deques' lengths. *)
let scan_victim lens cursor ~self =
  let n = Array.length lens in
  let next i = if i + 1 = n then 0 else i + 1 in
  let idx = ref (if cursor.(self) >= 0 then cursor.(self) else next self) in
  let found = ref (-1) and probes = ref 0 in
  for _ = 1 to n do
    let i = !idx in
    if !found < 0 && i <> self then begin
      incr probes;
      if lens.(i) > 0 then begin
        found := i;
        cursor.(self) <- next i
      end
    end;
    idx := next i
  done;
  (!found, !probes)

type dq_op =
  | Dq_push of int * bool
  | Dq_pop of int * bool
  | Dq_steal of int * int
  | Dq_victim of int

let dq_script ~lo ~hi =
  QCheck.make
    ~print:(fun (n, ops) -> Printf.sprintf "%d deques, %d ops" n (List.length ops))
    QCheck.Gen.(
      int_range lo hi >>= fun n ->
      let i = int_bound (n - 1) in
      let op =
        frequency
          [
            (4, map2 (fun i head -> Dq_push (i, head)) i bool);
            (2, map2 (fun i head -> Dq_pop (i, head)) i bool);
            (1, map2 (fun a b -> Dq_steal (a, b)) i i);
            (4, map (fun i -> Dq_victim i) i);
          ]
      in
      list_size (int_range 1 200) op >|= fun ops -> (n, ops))

(* Lockstep: every mutation goes through [Deques] and a length model, and
   every victim call must return the scan's victim, leave the scan's
   cursor and report the scan's probes (charged as simulated time). *)
let prop_deques_victim ~name ~lo ~hi =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:200 (dq_script ~lo ~hi) (fun (n, ops) ->
         let d = Deques.create n in
         let lens = Array.make n 0 and cursor = Array.make n (-1) in
         let step = function
           | Dq_push (i, head) ->
               (if head then Deques.push_head else Deques.push_tail) d i (mk_task "d");
               lens.(i) <- lens.(i) + 1;
               true
           | Dq_pop (i, head) ->
               let got = (if head then Deques.pop_head else Deques.pop_tail) d i in
               let had = lens.(i) > 0 in
               if had then lens.(i) <- lens.(i) - 1;
               Option.is_some got = had
           | Dq_steal (a, b) when a = b -> true
           | Dq_steal (a, b) ->
               let want = (lens.(a) + 1) / 2 in
               lens.(a) <- lens.(a) - want;
               lens.(b) <- lens.(b) + want;
               Deques.steal_half d ~from:a ~into:b = want
           | Dq_victim self ->
               let want, probes = scan_victim lens cursor ~self in
               Deques.victim d ~self = want
               && Deques.probes d = probes
               && Deques.cursor d self = cursor.(self)
         in
         List.for_all
              (fun op ->
                step op
                && Array.for_all Fun.id
                     (Array.init n (fun i -> Deques.is_empty d i = (lens.(i) = 0))))
              ops))

let prop_deques_victim_masked =
  prop_deques_victim ~name:"deques: mask victim matches the scan (1-62 deques)" ~lo:1
    ~hi:62

let prop_deques_victim_fallback =
  prop_deques_victim ~name:"deques: victim matches the scan past the mask (63-80)"
    ~lo:63 ~hi:80

(* ---- a trivial FIFO policy for runtime tests ---- *)

let fifo_ctor : Sched_ops.ctor =
 fun view ->
  let q = Runqueue.create () in
  {
    Sched_ops.task_init = ignore;
    task_terminate = ignore;
    task_enqueue = (fun ~cpu:_ ~reason:_ task -> Runqueue.push_tail q task);
    task_dequeue = (fun ~cpu:_ -> Runqueue.pop_head q);
    task_block = (fun ~cpu:_ _ -> ());
    task_wakeup =
      (fun ~waker_cpu task ->
        Runqueue.push_tail q task;
        Sched_ops.wakeup_to_idle_or view ~fallback:waker_cpu);
    sched_timer_tick = (fun ~cpu:_ _ -> false);
    sched_balance = Sched_ops.no_balance;
    sched_migration_charge = Sched_ops.no_migration_charge;
    sched_idle_park = Sched_ops.park_after_grace;
  }

(* RR policy with a given slice, local queue per core *)
let rr_ctor slice : Sched_ops.ctor =
 fun view ->
  let q = Runqueue.create () in
  {
    Sched_ops.task_init = ignore;
    task_terminate = ignore;
    task_enqueue = (fun ~cpu:_ ~reason:_ task -> Runqueue.push_tail q task);
    task_dequeue = (fun ~cpu:_ -> Runqueue.pop_head q);
    task_block = (fun ~cpu:_ _ -> ());
    task_wakeup =
      (fun ~waker_cpu task ->
        Runqueue.push_tail q task;
        Sched_ops.wakeup_to_idle_or view ~fallback:waker_cpu);
    sched_timer_tick =
      (fun ~cpu:_ task ->
        (not (Runqueue.is_empty q)) && view.now () - task.Task.run_start >= slice);
    sched_balance = Sched_ops.no_balance;
    sched_migration_charge = Sched_ops.no_migration_charge;
    sched_idle_park = Sched_ops.park_after_grace;
  }

let make_percpu ?(cores = 4) ?(timer_hz = 100_000) ?(preemption = true) ctor =
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:8) in
  let kmod = Kmod.create machine in
  let percpu =
    Percpu.create machine kmod ~cores:(List.init cores Fun.id) ~timer_hz ~preemption ctor
  in
  (engine, percpu, Percpu.runtime percpu)

(* ---- Percpu runtime ---- *)

(* The view maps a core id to its position, the index of every per-core
   policy table (the work-stealing deques included).  The cores are odd
   ids, so no position equals its core id, and 0 and 2n are unmanaged;
   the counts span those of the deque properties above. *)
let test_percpu_view_positions () =
  List.iter
    (fun n ->
      let engine = Engine.create () in
      let topology = Topology.create ~sockets:1 ~cores_per_socket:((2 * n) + 1) in
      let machine = Machine.create engine topology in
      let cores = Array.init n (fun i -> (2 * i) + 1) in
      let pc =
        Percpu.create machine (Kmod.create machine) ~cores:(Array.to_list cores)
          ~preemption:false fifo_ctor
      in
      let view = Rc.view (Percpu.runtime pc) in
      check (Alcotest.array Alcotest.int) "the managed cores, in order" cores view.cores;
      let position c = check Alcotest.int (Printf.sprintf "core %d" c) in
      Array.iteri (fun i c -> position c i (Sched_ops.index_of view c)) cores;
      List.iter (fun c -> position c (-1) (Sched_ops.index_of view c)) [ 0; 2 * n; -1 ])
    [ 1; 2; 62; 63; 80 ]

(* The per-core LAPIC ticks are same-phase [Engine.every]s, so they share
   one heap entry: an idle 8-core runtime keeps exactly as many entries
   pending as a 1-core one between tick rounds, while each of its cores
   still runs every callback the single core runs. *)
let test_percpu_ticks_share_one_entry () =
  let e1, _, _ = make_percpu ~cores:1 fifo_ctor in
  let e8, _, _ = make_percpu ~cores:8 fifo_ctor in
  List.iter
    (fun t ->
      Engine.run ~until:t e1;
      Engine.run ~until:t e8;
      check Alcotest.int "one heap entry for all eight ticks" (Engine.pending e1)
        (Engine.pending e8);
      check Alcotest.int "eight cores' worth of callbacks"
        (8 * Engine.events_fired e1)
        (Engine.events_fired e8))
    [ 1; Time.us 15; Time.us 55 ]

(* 70 workers put the idle mask in two words (slots 0..61 and 62..69).
   Placement, kills and broker caps must all see idle units beyond slot
   62, and every answer must equal a full scan of the units. *)
let test_percpu_idle_mask_two_words () =
  let workers = 70 in
  let engine = Engine.create () in
  let machine =
    Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:workers)
  in
  let kmod = Kmod.create machine in
  let pc =
    Percpu.create machine kmod ~cores:(List.init workers Fun.id) ~preemption:false
      fifo_ctor
  in
  let rt = Percpu.runtime pc in
  let app = Rc.create_app rt ~name:"wide" in
  let spawn ?cpu () =
    Rc.spawn rt app ~name:"w" ?cpu (Coro.compute_then_exit (Time.ms 10))
  in
  let until = ref 0 in
  let run () =
    until := !until + Time.us 50;
    Engine.run ~until:!until engine
  in
  let scan () =
    Array.find_opt
      (fun (ex : Rc.exec) -> Rc.current ex == Task.nil && not (Rc.unit_capped rt ex))
      (Rc.dispatch rt).Rc.d_units
    |> Option.map (fun (ex : Rc.exec) -> Rc.exec_core ex)
  in
  let first_idle what expected =
    let picked = (Rc.view rt).Sched_ops.pick_idle () in
    check (Alcotest.option Alcotest.int) (what ^ ": scan") expected (scan ());
    check (Alcotest.option Alcotest.int) (what ^ ": mask") expected picked
  in
  let on core =
    match Percpu.current pc ~core with Some task -> task | None -> Alcotest.fail "idle"
  in
  first_idle "fresh runtime" (Some 0);
  for core = 0 to workers - 2 do
    ignore (spawn ~cpu:core ())
  done;
  run ();
  first_idle "only the last core idle" (Some 69);
  check Alcotest.bool "core 69 idle" true (Percpu.is_idle pc ~core:69);
  check Alcotest.bool "core 62 busy" false (Percpu.is_idle pc ~core:62);
  check Alcotest.bool "core 70 is not a unit" false (Percpu.is_idle pc ~core:70);
  let last = spawn () in
  run ();
  check Alcotest.bool "unpinned spawn lands on slot 69" true (on 69 == last);
  first_idle "all busy" None;
  Rc.kill rt (on 62);
  run ();
  first_idle "first slot of the second word freed" (Some 62);
  Rc.kill rt (on 61);
  run ();
  first_idle "last slot of the first word freed" (Some 61);
  (* Capping at 61 evicts slots 61..69; their tasks queue, nothing idles. *)
  Rc.set_core_allowance rt 61;
  run ();
  first_idle "capped below both free slots" None;
  check Alcotest.bool "capped core 62 not idle" false (Percpu.is_idle pc ~core:62);
  (* 63 hands slots 61 and 62 back; each takes a queued task. *)
  Rc.set_core_allowance rt 63;
  run ();
  first_idle "handed-back slots took queued work" None;
  (* The other five of the seven queued tasks fill 63..67. *)
  Rc.set_core_allowance rt max_int;
  run ();
  first_idle "uncapped: two slots left over in the second word" (Some 68);
  check Alcotest.bool "core 69 idle again" true (Percpu.is_idle pc ~core:69);
  check Alcotest.bool "kthread indexed by slot beyond 62" true
    (Rc.kthread rt ~app:app.App.id ~core:69 != Rc.kthread rt ~app:app.App.id ~core:62);
  Alcotest.check_raises "no kthread on a core that is not a unit" Not_found (fun () ->
      ignore (Rc.kthread rt ~app:app.App.id ~core:70))


let test_percpu_runs_task () =
  let engine, _, rt = make_percpu fifo_ctor in
  let app = Rc.create_app rt ~name:"app" in
  let done_at = ref 0 in
  ignore
    (Rc.spawn rt app ~name:"t" ~service:(Time.us 100)
       (Coro.Compute (Time.us 100, fun () -> done_at := Engine.now engine; Coro.Exit)));
  Engine.run ~until:(Time.ms 1) engine;
  check Alcotest.bool "ran" true (!done_at > 0);
  check Alcotest.int "completed count" 1 app.App.completed;
  check Alcotest.int "recorded" 1 (Summary.requests app.App.summary)

let test_percpu_parallelism () =
  let engine, _, rt = make_percpu ~cores:4 fifo_ctor in
  let app = Rc.create_app rt ~name:"app" in
  let last = ref 0 in
  for _ = 1 to 4 do
    ignore
      (Rc.spawn rt app ~name:"t"
         (Coro.Compute (Time.ms 1, fun () -> last := Engine.now engine; Coro.Exit)))
  done;
  Engine.run ~until:(Time.ms 10) engine;
  check Alcotest.bool "4 tasks on 4 cores in ~1ms" true (!last < Time.ms 2);
  check Alcotest.int "all done" 4 app.App.completed

let test_percpu_timer_ticks_happen () =
  let engine, _, rt = make_percpu ~cores:1 ~timer_hz:10_000 fifo_ctor in
  let app = Rc.create_app rt ~name:"app" in
  ignore (Rc.spawn rt app ~name:"hog" (Coro.compute_then_exit (Time.ms 5)));
  Engine.run ~until:(Time.ms 5) engine;
  (* 10kHz for 5ms on a busy core: ~50 ticks *)
  check Alcotest.bool "ticks counted" true (Rc.timer_ticks rt >= 40)

let test_percpu_no_preemption_mode () =
  let engine, _, rt = make_percpu ~cores:1 ~preemption:false fifo_ctor in
  let app = Rc.create_app rt ~name:"app" in
  ignore (Rc.spawn rt app ~name:"hog" (Coro.compute_then_exit (Time.ms 5)));
  Engine.run ~until:(Time.ms 6) engine;
  check Alcotest.int "no ticks" 0 (Rc.timer_ticks rt);
  check Alcotest.int "still completes" 1 app.App.completed

let test_percpu_rr_preemption () =
  (* One core, RR 50us slices: a long task and a short task interleave; the
     short one finishes long before the long one. *)
  let engine, _, rt = make_percpu ~cores:1 (rr_ctor (Time.us 50)) in
  let app = Rc.create_app rt ~name:"app" in
  let long_done = ref 0 and short_done = ref 0 in
  ignore
    (Rc.spawn rt app ~name:"long"
       (Coro.Compute (Time.ms 2, fun () -> long_done := Engine.now engine; Coro.Exit)));
  ignore
    (Rc.spawn rt app ~name:"short"
       (Coro.Compute (Time.us 100, fun () -> short_done := Engine.now engine; Coro.Exit)));
  Engine.run ~until:(Time.ms 5) engine;
  check Alcotest.bool "short escapes head-of-line blocking" true
    (!short_done > 0 && !short_done < Time.us 400);
  check Alcotest.bool "long still finishes" true (!long_done > Time.ms 2);
  check Alcotest.bool "preemptions happened" true (Rc.preemptions rt > 0)

let test_percpu_fifo_hol_blocking () =
  (* Same workload without preemption: the short task waits for the long. *)
  let engine, _, rt = make_percpu ~cores:1 ~preemption:false fifo_ctor in
  let app = Rc.create_app rt ~name:"app" in
  let short_done = ref 0 in
  ignore (Rc.spawn rt app ~name:"long" (Coro.compute_then_exit (Time.ms 2)));
  ignore
    (Rc.spawn rt app ~name:"short"
       (Coro.Compute (Time.us 100, fun () -> short_done := Engine.now engine; Coro.Exit)));
  Engine.run ~until:(Time.ms 5) engine;
  check Alcotest.bool "short suffered HoL blocking" true (!short_done > Time.ms 2)

let test_percpu_multi_app_switching () =
  (* Two applications sharing one core: switching between their tasks must
     go through the kernel module and be counted. *)
  let engine, _, rt = make_percpu ~cores:1 (rr_ctor (Time.us 20)) in
  let app1 = Rc.create_app rt ~name:"lc" in
  let app2 = Rc.create_app rt ~name:"be" in
  ignore (Rc.spawn rt app1 ~name:"a" (Coro.compute_then_exit (Time.us 200)));
  ignore (Rc.spawn rt app2 ~name:"b" (Coro.compute_then_exit (Time.us 200)));
  Engine.run ~until:(Time.ms 2) engine;
  check Alcotest.int "both done" 2 (app1.App.completed + app2.App.completed);
  check Alcotest.bool "app switches happened" true (Rc.app_switches rt >= 2);
  check Alcotest.bool "both apps got CPU" true
    (app1.App.busy_ns > 0 && app2.App.busy_ns > 0)

let test_percpu_app_switch_costs_more () =
  (* The same interleaving within one app vs across apps: cross-app must
     take longer in total (1905ns vs 37ns per switch). *)
  let run two_apps =
    let engine, _, rt = make_percpu ~cores:1 (rr_ctor (Time.us 10)) in
    let app1 = Rc.create_app rt ~name:"a1" in
    let app2 = if two_apps then Rc.create_app rt ~name:"a2" else app1 in
    let finished = ref 0 in
    let spawn app name =
      ignore
        (Rc.spawn rt app ~name
           (Coro.Compute (Time.us 300, fun () -> finished := Engine.now engine; Coro.Exit)))
    in
    spawn app1 "x";
    spawn app2 "y";
    Engine.run ~until:(Time.ms 5) engine;
    !finished
  in
  let same = run false and cross = run true in
  check Alcotest.bool "cross-app interleaving is slower" true (cross > same + Time.us 20)

let test_percpu_uipi_preemption () =
  (* Dispatcher-style preemption: send a user IPI to a busy core; its
     handler asks the policy, which preempts at quantum expiry. *)
  let engine, _, rt = make_percpu ~cores:2 ~preemption:false (rr_ctor (Time.us 10)) in
  let app = Rc.create_app rt ~name:"app" in
  ignore (Rc.spawn rt app ~name:"long" ~cpu:0 (Coro.compute_then_exit (Time.ms 1)));
  ignore (Rc.spawn rt app ~name:"waiting" ~cpu:0 (Coro.compute_then_exit (Time.us 10)));
  (* preemption disabled -> no timer; send an explicit user IPI at 100us *)
  let machine = Rc.machine rt in
  Engine.at engine (Time.us 100) (fun () ->
      match Machine.uintr_installed machine ~core:0 with
      | Some ctx ->
          Machine.senduipi machine ~src_core:1 ctx ~uvec:Skyloft_hw.Vectors.uvec_preempt
      | None -> Alcotest.fail "no context on core 0");
  Engine.run ~until:(Time.ms 3) engine;
  check Alcotest.bool "IPI preempted the long task" true (Rc.preemptions rt >= 1)

let test_percpu_requires_cores () =
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:2) in
  let kmod = Kmod.create machine in
  check Alcotest.bool "no cores rejected" true
    (try
       ignore (Percpu.create machine kmod ~cores:[] fifo_ctor);
       false
     with Invalid_argument _ -> true)

let test_percpu_be_colocation () =
  (* BE soaks idle cores via the allocator; LC load evicts it. *)
  let engine, _, rt = make_percpu ~cores:2 fifo_ctor in
  let lc = Rc.create_app rt ~name:"lc" in
  let be = Rc.create_app rt ~name:"batch" in
  Rc.attach_be_app rt be ~chunk:(Time.us 20) ~workers:2;
  (* idle phase: BE owns both cores *)
  Engine.run ~until:(Time.ms 2) engine;
  let idle_be = be.App.busy_ns in
  check Alcotest.bool "BE soaks idle cores" true
    (float_of_int idle_be /. float_of_int (2 * Time.ms 2) > 0.9);
  (* loaded phase: 15us of LC work every 10us (75% of 2 cores) *)
  let done_ = ref 0 in
  for i = 0 to 999 do
    Engine.at engine (Time.ms 2 + (i * Time.us 10)) (fun () ->
        ignore
          (Rc.spawn rt lc ~name:"req" ~service:(Time.us 15)
             (Coro.Compute (Time.us 15, fun () -> incr done_; Coro.Exit))))
  done;
  Engine.run ~until:(Time.ms 16) engine;
  check Alcotest.int "all LC served despite BE" 1000 !done_;
  check Alcotest.bool "BE preempted for LC" true (Rc.be_preemptions rt > 0);
  match Rc.allocator rt with
  | None -> Alcotest.fail "allocator not started by attach_be_app"
  | Some alloc ->
      check Alcotest.bool "allocator moved cores" true
        (Skyloft_alloc.Allocator.reclaims alloc > 0
        || Skyloft_alloc.Allocator.yields alloc > 0);
      check Alcotest.bool "switch costs charged" true
        (Skyloft_alloc.Allocator.charged_ns alloc > 0)

let test_percpu_be_guaranteed_cores () =
  (* A guaranteed BE core survives saturating LC load. *)
  let engine, _, rt = make_percpu ~cores:2 fifo_ctor in
  let lc = Rc.create_app rt ~name:"lc" in
  let be = Rc.create_app rt ~name:"batch" in
  let alloc_cfg =
    { (Skyloft_alloc.Allocator.default_config ()) with
      Skyloft_alloc.Allocator.be_guaranteed = 1 }
  in
  Rc.attach_be_app rt ~alloc:alloc_cfg be ~chunk:(Time.us 20) ~workers:2;
  (* oversubscribe: 30us of LC work every 10us *)
  for i = 0 to 999 do
    Engine.at engine (i * Time.us 10) (fun () ->
        ignore
          (Rc.spawn rt lc ~name:"req" ~service:(Time.us 30)
             (Coro.compute_then_exit (Time.us 30))))
  done;
  Engine.run ~until:(Time.ms 10) engine;
  let total = 2 * Time.ms 10 in
  let be_share = App.cpu_share be ~total_ns:total in
  (* one of two cores guaranteed -> BE keeps ~half the machine *)
  check Alcotest.bool "guaranteed core kept under saturation" true (be_share > 0.4);
  match Rc.allocator rt with
  | None -> Alcotest.fail "allocator missing"
  | Some alloc ->
      check Alcotest.int "grant never below guarantee" 1
        (Skyloft_alloc.Allocator.granted alloc ~app:be.App.id)

(* A rejected BE attach admits nothing: every bad allocator config and
   every out-of-range BE bound raises before a worker exists, so no task
   is left alive and a valid retry still attaches and starts the
   allocator. *)
let test_percpu_be_attach_validates_first () =
  let engine, _, rt = make_percpu ~cores:2 fifo_ctor in
  let be = Rc.create_app rt ~name:"batch" in
  let default = Skyloft_alloc.Allocator.default_config () in
  let attach alloc = Rc.attach_be_app rt ~alloc be ~chunk:(Time.us 20) ~workers:2 in
  List.iter
    (fun (what, alloc) ->
      check Alcotest.bool (what ^ " rejected") true
        (try
           attach alloc;
           false
         with Invalid_argument _ -> true);
      check Alcotest.int (what ^ ": nothing alive") 0 be.App.tasks_alive;
      check Alcotest.bool (what ^ ": no allocator") true
        (Option.is_none (Rc.allocator rt)))
    [
      ("zero degrade_after", { default with degrade_after = Some 0 });
      ("negative guarantee", { default with be_guaranteed = -1 });
      ("guarantee above the cores", { default with be_guaranteed = 3 });
    ];
  attach default;
  check Alcotest.int "valid retry admits the workers" 2 be.App.tasks_alive;
  Engine.run ~until:(Time.ms 1) engine;
  check Alcotest.bool "valid retry starts the allocator" true
    (match Rc.allocator rt with
    | Some alloc -> Skyloft_alloc.Allocator.ticks alloc > 0
    | None -> false)

(* ---- Centralized runtime: Hybrid pinned with ~adaptive:false ---- *)

let make_centralized ?(workers = 4) ?(quantum = Time.us 30) ?(adaptive = false)
    ?mechanism () =
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:8) in
  let kmod = Kmod.create machine in
  let hybrid =
    Hybrid.create machine kmod ~dispatcher_core:0
      ~worker_cores:(List.init workers (fun i -> i + 1))
      ~quantum ~adaptive ?mechanism
      (fun view ->
        ignore view;
        fifo_ctor view)
  in
  (engine, hybrid, Hybrid.runtime hybrid)

let test_centralized_basic () =
  let engine, hybrid, rt = make_centralized () in
  let app = Rc.create_app rt ~name:"lc" in
  let done_ = ref 0 in
  for _ = 1 to 8 do
    ignore
      (Rc.spawn rt app ~name:"req" ~service:(Time.us 10)
         (Coro.Compute (Time.us 10, fun () -> incr done_; Coro.Exit)))
  done;
  Engine.run ~until:(Time.ms 1) engine;
  check Alcotest.int "all requests served" 8 !done_;
  check Alcotest.int "dispatches counted" 8 (Hybrid.dispatches hybrid)

let test_centralized_quantum_preemption () =
  (* 1 worker: a 1ms request then a 10us request.  With a 30us quantum the
     short request must NOT wait the full 1ms. *)
  let engine, _, rt = make_centralized ~workers:1 ~quantum:(Time.us 30) () in
  let app = Rc.create_app rt ~name:"lc" in
  let short_done = ref 0 in
  ignore
    (Rc.spawn rt app ~name:"long" ~service:(Time.ms 1)
       (Coro.compute_then_exit (Time.ms 1)));
  ignore
    (Rc.spawn rt app ~name:"short" ~service:(Time.us 10)
       (Coro.Compute (Time.us 10, fun () -> short_done := Engine.now engine; Coro.Exit)));
  Engine.run ~until:(Time.ms 5) engine;
  check Alcotest.bool "preempted" true (Rc.preemptions rt >= 1);
  check Alcotest.bool "short finished way before 1ms" true
    (!short_done > 0 && !short_done < Time.us 200)

let test_centralized_no_quantum_hol () =
  let engine, _, rt = make_centralized ~workers:1 ~quantum:0 () in
  let app = Rc.create_app rt ~name:"lc" in
  let short_done = ref 0 in
  ignore
    (Rc.spawn rt app ~name:"long" ~service:(Time.ms 1)
       (Coro.compute_then_exit (Time.ms 1)));
  ignore
    (Rc.spawn rt app ~name:"short" ~service:(Time.us 10)
       (Coro.Compute (Time.us 10, fun () -> short_done := Engine.now engine; Coro.Exit)));
  Engine.run ~until:(Time.ms 5) engine;
  check Alcotest.int "no preemption" 0 (Rc.preemptions rt);
  check Alcotest.bool "short suffered HoL" true (!short_done >= Time.ms 1)

let test_centralized_be_uses_idle_cores () =
  let engine, _, rt = make_centralized ~workers:2 () in
  let _lc = Rc.create_app rt ~name:"lc" in
  let be = Rc.create_app rt ~name:"batch" in
  Rc.attach_be_app rt be ~chunk:(Time.us 100) ~workers:2;
  Engine.run ~until:(Time.ms 10) engine;
  (* With no LC load at all, BE gets ~100% of both workers. *)
  let share = App.cpu_share be ~total_ns:(2 * Time.ms 10) in
  check Alcotest.bool "BE share near 1.0 when idle" true (share > 0.9)

let test_centralized_be_reclaimed_under_load () =
  (* default alloc config: Static policy at a 5us interval *)
  let engine, _, rt = make_centralized ~workers:2 () in
  let lc = Rc.create_app rt ~name:"lc" in
  let be = Rc.create_app rt ~name:"batch" in
  Rc.attach_be_app rt be ~chunk:(Time.us 100) ~workers:2;
  (* Heavy LC load: 15us of work every 10us = 75% of the 2 workers *)
  let rec gen i =
    if i < 2000 then
      Engine.at engine (i * Time.us 10) (fun () ->
          ignore
            (Rc.spawn rt lc ~name:"req" ~service:(Time.us 15)
               (Coro.compute_then_exit (Time.us 15)));
          gen (i + 1))
  in
  gen 0;
  (* arrivals span 20ms; leave drain time before measuring *)
  Engine.run ~until:(Time.ms 25) engine;
  let lc_share = App.cpu_share lc ~total_ns:(2 * Time.ms 25) in
  let be_share = App.cpu_share be ~total_ns:(2 * Time.ms 25) in
  check Alcotest.bool "BE cores reclaimed" true (Rc.be_preemptions rt > 0);
  (* LC demands 2000 x 15us over 50ms of core time = 0.6; it must get all
     of it, and BE must soak most of the leftover without starving LC. *)
  check Alcotest.bool "LC gets its full demand" true (lc_share >= 0.58);
  check Alcotest.bool "BE soaks idle capacity" true
    (be_share > 0.15 && lc_share > be_share);
  check Alcotest.int "all LC served" 2000 lc.App.completed;
  match Rc.allocator rt with
  | None -> Alcotest.fail "allocator not started by attach_be_app"
  | Some alloc ->
      check Alcotest.bool "allocator reclaimed cores" true
        (Skyloft_alloc.Allocator.reclaims alloc > 0);
      (* every core moved was charged the §5.4 inter-app switch cost *)
      let moves =
        Skyloft_alloc.Allocator.grants alloc + Skyloft_alloc.Allocator.reclaims alloc
        + Skyloft_alloc.Allocator.yields alloc
      in
      check Alcotest.bool "switch costs charged for moves" true
        (moves > 0
        && Skyloft_alloc.Allocator.charged_ns alloc
           >= Skyloft_hw.Costs.app_switch_ns)

let test_centralized_dispatcher_serializes () =
  (* With ghOSt's expensive dispatcher, throughput is capped by dispatch
     cost: 100 requests need 100 dispatches of the serial dispatcher even
     though 4 workers could run the 1us requests faster. *)
  let mech = Hybrid.ghost_mechanism in
  let engine, _, rt = make_centralized ~workers:4 ~mechanism:mech () in
  let app = Rc.create_app rt ~name:"lc" in
  let last_done = ref 0 in
  for _ = 1 to 100 do
    ignore
      (Rc.spawn rt app ~name:"req" ~service:1_000
         (Coro.Compute (1_000, fun () -> last_done := Engine.now engine; Coro.Exit)))
  done;
  Engine.run ~until:(Time.ms 5) engine;
  check Alcotest.bool "dispatcher-bound completion time" true
    (!last_done >= 100 * Hybrid.dispatch_cost mech)

let test_centralized_invalid_config () =
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:4) in
  let kmod = Kmod.create machine in
  check Alcotest.bool "dispatcher in worker set rejected" true
    (try
       ignore
         (Hybrid.create machine kmod ~dispatcher_core:1 ~worker_cores:[ 1; 2 ]
            ~quantum:0 ~adaptive:false fifo_ctor);
       false
     with Invalid_argument _ -> true)

(* Both constructors reject a bad configuration with their own message
   before building anything: nothing is parked on the kmod's cores, so a
   valid runtime still builds on the same kmod afterwards. *)
let test_constructors_validate_first () =
  let percpu ?timer_hz ?preemption ?watchdog cores machine kmod =
    ignore (Percpu.create machine kmod ~cores ?timer_hz ?preemption ?watchdog fifo_ctor)
  in
  let hybrid ?watchdog ?(dispatcher_core = 0) worker_cores machine kmod =
    ignore
      (Hybrid.create machine kmod ~dispatcher_core ~worker_cores ~quantum:(Time.us 30)
         ?watchdog fifo_ctor)
  in
  let cases =
    [
      ("percpu: no cores", percpu [], "Percpu.create: no cores", percpu [ 0; 1 ]);
      ( "percpu: watchdog",
        percpu ~watchdog:0 [ 0; 1 ],
        "Percpu.create: watchdog bound must be positive",
        percpu [ 0; 1 ] );
      ( "percpu: timer_hz 0",
        percpu ~timer_hz:0 [ 0; 1 ],
        "Percpu.create: timer_hz must be positive",
        percpu [ 0; 1 ] );
      ( "percpu: timer_hz 0, no preemption",
        percpu ~timer_hz:0 ~preemption:false [ 0; 1 ],
        "Percpu.create: timer_hz must be positive",
        percpu [ 0; 1 ] );
      ("hybrid: no cores", hybrid [], "Hybrid.create: no worker cores", hybrid [ 1; 2 ]);
      ( "hybrid: watchdog",
        hybrid ~watchdog:(-1) [ 1; 2 ],
        "Hybrid.create: watchdog bound must be positive",
        hybrid [ 1; 2 ] );
      ( "hybrid: dispatcher is a worker",
        hybrid ~dispatcher_core:1 [ 1; 2 ],
        "Hybrid.create: dispatcher core cannot also be a worker",
        hybrid [ 1; 2 ] );
    ]
  in
  List.iter
    (fun (label, bad, msg, good) ->
      let engine = Engine.create () in
      let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:4) in
      let kmod = Kmod.create machine in
      Alcotest.check_raises label (Invalid_argument msg) (fun () -> bad machine kmod);
      for core = 0 to 3 do
        check Alcotest.int
          (Printf.sprintf "%s: nothing parked on core %d" label core)
          0
          (List.length (Kmod.kthreads_on kmod ~core))
      done;
      good machine kmod)
    cases

(* A deadline that fires while the dispatcher is still committing the
   assignment: with the ghOSt cost vector the 1.2 us dispatch outlasts the
   500 ns deadline.  The request must end exactly once — as a drop — and
   never run on the worker. *)
let test_centralized_kill_in_flight () =
  let engine, _, rt =
    make_centralized ~workers:1 ~mechanism:Hybrid.ghost_mechanism ()
  in
  let app = Rc.create_app rt ~name:"lc" in
  let dropped = ref 0 and completed = ref 0 in
  ignore
    (Rc.spawn rt app ~name:"req" ~service:(Time.us 10) ~deadline:500
       ~on_drop:(fun _ -> incr dropped)
       (Coro.Compute (Time.us 10, fun () -> incr completed; Coro.Exit)));
  Engine.run ~until:(Time.ms 1) engine;
  check Alcotest.int "exactly one outcome" 1 (!dropped + !completed);
  check Alcotest.int "the outcome is the drop" 1 !dropped;
  check Alcotest.int "deadline drops" 1 (Rc.deadline_drops rt);
  check Alcotest.int "no task left alive" 0 app.App.tasks_alive

(* [~adaptive:false] arms neither the mode monitor nor the per-core
   timers: a burst far past the 2x-workers threshold stays on the serial
   dispatcher. *)
let test_centralized_pinned_mode () =
  let engine, hybrid, rt = make_centralized ~workers:2 () in
  let app = Rc.create_app rt ~name:"lc" in
  let done_ = ref 0 in
  for _ = 1 to 20 do
    ignore
      (Rc.spawn rt app ~name:"req" ~service:(Time.us 50)
         (Coro.Compute (Time.us 50, fun () -> incr done_; Coro.Exit)))
  done;
  check Alcotest.bool "burst deeper than 2x the workers" true
    (Hybrid.queue_length hybrid > 4);
  Engine.run ~until:(Time.ms 2) engine;
  check Alcotest.int "all requests served" 20 !done_;
  check Alcotest.int "no mode switches" 0 (Hybrid.mode_switches hybrid);
  check Alcotest.int "no timer ticks" 0 (Rc.timer_ticks rt);
  check Alcotest.bool "still central" true (Hybrid.mode hybrid = Hybrid.Central)

(* ---- behaviour shared by both mechanisms ---- *)

(* Every mechanism under test, fresh per call: per-CPU, the hybrid pinned
   to its serial dispatcher, and the adaptive hybrid. *)
let every_runtime ~workers =
  [
    ("percpu", fun () ->
      let engine, _, rt = make_percpu ~cores:workers fifo_ctor in
      (engine, rt));
    ("pinned hybrid", fun () ->
      let engine, _, rt = make_centralized ~workers () in
      (engine, rt));
    ("adaptive hybrid", fun () ->
      let engine, _, rt = make_centralized ~workers ~adaptive:true () in
      (engine, rt));
  ]

(* A block-then-wakeup records exactly one wakeup-latency sample on every
   mechanism; on an idle per-CPU core the user-space wakeup is
   sub-microsecond. *)
let test_block_wakeup_latency () =
  List.iter
    (fun (name, make) ->
      let engine, rt = make () in
      let app = Rc.create_app rt ~name:"app" in
      let woke = ref false in
      let sleeper =
        Rc.spawn rt app ~name:"sleeper" (Coro.Block (fun () -> woke := true; Coro.Exit))
      in
      Engine.at engine (Time.us 100) (fun () -> Rc.wakeup rt sleeper);
      Engine.run ~until:(Time.ms 1) engine;
      check Alcotest.bool (name ^ ": woken") true !woke;
      let h = Rc.wakeup_hist rt in
      check Alcotest.int (name ^ ": one sample") 1 (Histogram.count h);
      if name = "percpu" then
        check Alcotest.bool "percpu: sub-us wakeup" true (Histogram.max_value h < Time.us 1))
    (every_runtime ~workers:2)

(* [preemptions] counts LC tasks preempted off their core, nothing else:
   shrinking the BE allowance with no LC work at all preempts BE tasks,
   which only [be_preemptions] may count. *)
let test_be_preemptions_counted_apart () =
  List.iter
    (fun (name, make) ->
      let engine, rt = make () in
      let _lc = Rc.create_app rt ~name:"lc" in
      let be = Rc.create_app rt ~name:"batch" in
      Rc.attach_be_app rt be ~chunk:(Time.us 100) ~workers:2;
      let shed = ref 0 in
      Engine.at engine (Time.ms 1 + Time.us 50) (fun () ->
          let before = Rc.be_preemptions rt in
          Rc.set_be_allowance rt 0;
          shed := Rc.be_preemptions rt - before);
      Engine.run ~until:(Time.ms 2) engine;
      check Alcotest.int (name ^ ": both BE cores preempted") 2 !shed;
      check Alcotest.int (name ^ ": no LC preemption counted") 0 (Rc.preemptions rt))
    (every_runtime ~workers:2)

(* The adaptive hybrid's percore mode end to end: a burst past 2x the
   workers flips it to per-core ticks, which enforce the quantum on the
   shared queue's FIFO policy; a broker shrink while there evicts the
   capped worker's task, which still completes; the drained queue flips
   the runtime back to its dispatcher. *)
let test_hybrid_percore_mode () =
  let engine, hybrid, rt = make_centralized ~workers:2 ~adaptive:true () in
  let app = Rc.create_app rt ~name:"lc" in
  for _ = 1 to 12 do
    ignore
      (Rc.spawn rt app ~name:"req" ~service:(Time.us 200)
         (Coro.compute_then_exit (Time.us 200)))
  done;
  (* let the monitor flip and every central-mode quantum timer expire *)
  Engine.run ~until:(Time.us 150) engine;
  check Alcotest.bool "percore after the burst" true (Hybrid.mode hybrid = Hybrid.Percore);
  check Alcotest.bool "mode switched" true (Hybrid.mode_switches hybrid >= 1);
  check Alcotest.bool "per-core ticks" true (Rc.timer_ticks rt > 0);
  let preempts = Rc.preemptions rt and dispatches = Hybrid.dispatches hybrid in
  Engine.run ~until:(Time.us 300) engine;
  check Alcotest.bool "still percore" true (Hybrid.mode hybrid = Hybrid.Percore);
  check Alcotest.int "no dispatcher assignments in percore" dispatches
    (Hybrid.dispatches hybrid);
  check Alcotest.bool "the tick enforced the quantum" true
    (Rc.preemptions rt > preempts);
  let capped = (Rc.dispatch rt).Rc.d_units.(1) in
  check Alcotest.bool "the capped worker is busy" true (Rc.current capped != Task.nil);
  Rc.set_core_allowance rt 1;
  (* the eviction, or the tick backstop if the task was mid-switch *)
  Engine.run ~until:(Time.us 320) engine;
  check Alcotest.bool "capped worker evicted" true (Rc.current capped == Task.nil);
  Engine.run ~until:(Time.ms 5) engine;
  check Alcotest.int "every request completes" 12 app.App.completed;
  check Alcotest.bool "back to central" true (Hybrid.mode hybrid = Hybrid.Central);
  check Alcotest.bool "flipped back" true (Hybrid.mode_switches hybrid >= 2)

(* ---- spawn validates before it admits ---- *)

(* A rejected spawn must leave no trace: nothing admitted, nothing queued,
   nothing run.  A check that ran after admission would leave the task
   behind, running to completion or stranded on a queue no core drains. *)
let check_rejected_spawns engine rt bad_spawns =
  let app = Rc.create_app rt ~name:"lc" in
  let ran = ref 0 in
  List.iter
    (fun spawn ->
      check Alcotest.bool "spawn rejected" true
        (try
           ignore
             (spawn app (Coro.Compute (Time.us 10, fun () -> incr ran; Coro.Exit)));
           false
         with Invalid_argument _ -> true))
    bad_spawns;
  Engine.run ~until:(Time.ms 1) engine;
  check Alcotest.int "nothing admitted" 0 app.App.spawned;
  check Alcotest.int "nothing alive" 0 app.App.tasks_alive;
  check Alcotest.int "nothing completed" 0 app.App.completed;
  check Alcotest.int "nothing recorded" 0 (Summary.requests app.App.summary);
  check Alcotest.int "nothing dropped" 0 (Summary.drops app.App.summary);
  check Alcotest.int "nothing ran" 0 !ran

let test_percpu_spawn_validates_first () =
  let engine, _, rt = make_percpu ~cores:2 fifo_ctor in
  check_rejected_spawns engine rt
    [
      (fun app body -> Rc.spawn rt app ~name:"bad-deadline" ~deadline:0 body);
      (fun app body -> Rc.spawn rt app ~name:"unmanaged" ~cpu:9 body);
    ]

let test_centralized_spawn_validates_first () =
  let engine, _, rt = make_centralized ~workers:2 () in
  check_rejected_spawns engine rt
    [
      (fun app body -> Rc.spawn rt app ~name:"bad-deadline" ~deadline:0 body);
      (* a serial dispatcher cannot pin, not even to one of its workers *)
      (fun app body -> Rc.spawn rt app ~name:"pinned" ~cpu:1 body);
    ]

(* ---- Kill inside the switch window (both mechanisms) ---- *)

(* The first dispatch on a core pays the 1,905 ns kernel-module app
   switch, so a 500 ns deadline fires after [begin_run] and before the
   task's body starts.  The kill must drop the task exactly once, cancel
   its pending switch-done firing (an armed timer belongs to the unit's
   current task), never start the killed body, and leave the unit to run
   the task queued behind it exactly once. *)
let check_kill_in_switch_window engine rt ~core =
  let app = Rc.create_app rt ~name:"lc" in
  let ex = (Rc.dispatch rt).Rc.d_units.(Rc.slot_of_core rt core) in
  let drops = ref 0 and in_window = ref false and stale_pending = ref true in
  let killed_ran = ref false and next_runs = ref 0 in
  let on_drop (task : Task.t) =
    incr drops;
    in_window := Rc.now rt < task.Task.run_start;
    stale_pending := Rc.switch_pending ex
  in
  let body flag = Coro.Yield (fun () -> flag (); Coro.compute_then_exit (Time.us 10)) in
  ignore
    (Rc.spawn rt app ~name:"killed" ~service:(Time.us 10) ~deadline:500 ~on_drop
       (body (fun () -> killed_ran := true)));
  ignore (Rc.spawn rt app ~name:"next" ~service:(Time.us 10) (body (fun () -> incr next_runs)));
  Engine.run ~until:(Time.ms 1) engine;
  check Alcotest.int "dropped once" 1 !drops;
  check Alcotest.int "one deadline drop counted" 1 (Rc.deadline_drops rt);
  check Alcotest.int "one drop in the summary" 1 (Summary.drops app.App.summary);
  check Alcotest.bool "the deadline fired inside the switch window" true !in_window;
  check Alcotest.bool "the kill cancelled the switch-done firing" false !stale_pending;
  check Alcotest.bool "the killed task's body never started" false !killed_ran;
  check Alcotest.int "the next task started once" 1 !next_runs;
  check Alcotest.int "the next task completed once" 1 (Summary.requests app.App.summary);
  check Alcotest.int "nothing left alive" 0 app.App.tasks_alive;
  check Alcotest.int "attribution identity holds" 0
    (Skyloft_obs.Attribution.mismatches app.App.attribution)

let test_percpu_kill_in_switch_window () =
  let engine, _, rt = make_percpu ~cores:1 ~preemption:false fifo_ctor in
  check_kill_in_switch_window engine rt ~core:0

let test_centralized_kill_in_switch_window () =
  let engine, _, rt = make_centralized ~workers:1 () in
  check_kill_in_switch_window engine rt ~core:1

let suite =
  [
    Alcotest.test_case "runqueue: fifo + deque" `Quick test_runqueue_fifo;
    Alcotest.test_case "runqueue: remove" `Quick test_runqueue_remove;
    Alcotest.test_case "runqueue: double insert" `Quick test_runqueue_double_insert_rejected;
    Alcotest.test_case "runqueue: pop_tail drains" `Quick test_runqueue_pop_tail_drain;
    Alcotest.test_case "runqueue: remove head/tail/last" `Quick test_runqueue_remove_ends;
    Alcotest.test_case "runqueue: re-push after remove" `Quick
      test_runqueue_repush_after_remove;
    Alcotest.test_case "runqueue: steal-half" `Quick test_runqueue_steal_half;
    prop_runqueue_steal_half_model;
    prop_runqueue_fifo_order;
    Alcotest.test_case "runqueue: one queue per task" `Quick
      test_runqueue_one_queue_per_task;
    prop_runqueue_model;
    Alcotest.test_case "runqueue: zero-alloc steady state" `Quick
      test_runqueue_zero_alloc;
    Alcotest.test_case "runqueue: ring wraps, grows and steals across index 0" `Quick
      test_runqueue_ring_wraps;
    prop_deques_victim_masked;
    prop_deques_victim_fallback;
    Alcotest.test_case "percpu: the view maps core ids to positions" `Quick
      test_percpu_view_positions;
    Alcotest.test_case "percpu: runs a task" `Quick test_percpu_runs_task;
    Alcotest.test_case "percpu: parallelism" `Quick test_percpu_parallelism;
    Alcotest.test_case "percpu: timer ticks" `Quick test_percpu_timer_ticks_happen;
    Alcotest.test_case "percpu: no-preemption mode" `Quick test_percpu_no_preemption_mode;
    Alcotest.test_case "percpu: RR preemption beats HoL" `Quick test_percpu_rr_preemption;
    Alcotest.test_case "percpu: FIFO suffers HoL" `Quick test_percpu_fifo_hol_blocking;
    Alcotest.test_case "percpu: multi-app switching" `Quick test_percpu_multi_app_switching;
    Alcotest.test_case "percpu: app switch cost" `Quick test_percpu_app_switch_costs_more;
    Alcotest.test_case "percpu: user-IPI preemption" `Quick test_percpu_uipi_preemption;
    Alcotest.test_case "percpu: needs cores" `Quick test_percpu_requires_cores;
    Alcotest.test_case "percpu: BE co-location" `Quick test_percpu_be_colocation;
    Alcotest.test_case "percpu: BE guaranteed cores" `Quick
      test_percpu_be_guaranteed_cores;
    Alcotest.test_case "percpu: BE attach validates before admitting" `Quick
      test_percpu_be_attach_validates_first;
    Alcotest.test_case "percpu: idle mask over two words" `Quick
      test_percpu_idle_mask_two_words;
    Alcotest.test_case "percpu: per-core ticks share one heap entry" `Quick
      test_percpu_ticks_share_one_entry;
    Alcotest.test_case "percpu: kill in the switch window" `Quick
      test_percpu_kill_in_switch_window;
    Alcotest.test_case "centralized: basic" `Quick test_centralized_basic;
    Alcotest.test_case "centralized: kill in the switch window" `Quick
      test_centralized_kill_in_switch_window;
    Alcotest.test_case "centralized: quantum preemption" `Quick
      test_centralized_quantum_preemption;
    Alcotest.test_case "centralized: HoL without quantum" `Quick
      test_centralized_no_quantum_hol;
    Alcotest.test_case "centralized: BE gets idle cores" `Quick
      test_centralized_be_uses_idle_cores;
    Alcotest.test_case "centralized: BE reclaimed under load" `Quick
      test_centralized_be_reclaimed_under_load;
    Alcotest.test_case "centralized: dispatcher serializes" `Quick
      test_centralized_dispatcher_serializes;
    Alcotest.test_case "centralized: invalid config" `Quick test_centralized_invalid_config;
    Alcotest.test_case "centralized: kill during in-flight assignment" `Quick
      test_centralized_kill_in_flight;
    Alcotest.test_case "centralized: pinned mode never flips" `Quick
      test_centralized_pinned_mode;
    Alcotest.test_case "hybrid: percore mode end to end" `Quick test_hybrid_percore_mode;
    Alcotest.test_case "block/wakeup: sample per runtime" `Quick test_block_wakeup_latency;
    Alcotest.test_case "BE preemptions counted apart" `Quick
      test_be_preemptions_counted_apart;
    Alcotest.test_case "constructors validate before building" `Quick
      test_constructors_validate_first;
    Alcotest.test_case "percpu: spawn validates before admitting" `Quick
      test_percpu_spawn_validates_first;
    Alcotest.test_case "centralized: spawn validates before admitting" `Quick
      test_centralized_spawn_validates_first;
  ]
