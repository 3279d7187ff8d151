(* Tests for the kernel substrate: kthreads, the Linux scheduler model,
   and the Skyloft kernel module (binding rule). *)

module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Coro = Skyloft_sim.Coro
module Topology = Skyloft_hw.Topology
module Machine = Skyloft_hw.Machine
module Costs = Skyloft_hw.Costs
module Kthread = Skyloft_kernel.Kthread
module Linux = Skyloft_kernel.Linux
module Kmod = Skyloft_kernel.Kmod
module Histogram = Skyloft_stats.Histogram

let check = Alcotest.check

let make ?(cores = 4) policy =
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:cores) in
  let linux = Linux.create machine policy ~cores:(List.init cores Fun.id) in
  (engine, machine, linux)

(* ---- basic execution ---- *)

let test_linux_runs_to_completion () =
  let engine, _, linux = make Linux.cfs_default in
  let done_ = ref false in
  ignore
    (Linux.spawn linux
       (Coro.Compute (Time.us 100, fun () -> done_ := true; Coro.Exit)));
  Engine.run ~until:(Time.ms 10) engine;
  check Alcotest.bool "finished" true !done_;
  check Alcotest.int "no threads left" 0 (Linux.alive linux)

let test_linux_parallel_threads () =
  let engine, _, linux = make ~cores:4 Linux.cfs_default in
  (* 4 threads x 1ms work on 4 cores should finish in ~1ms, not 4ms *)
  let last_done = ref 0 in
  for _ = 1 to 4 do
    ignore
      (Linux.spawn linux
         (Coro.Compute (Time.ms 1, fun () -> last_done := Engine.now engine; Coro.Exit)))
  done;
  Engine.run ~until:(Time.ms 20) engine;
  check Alcotest.bool "parallel speedup" true (!last_done > 0 && !last_done < Time.ms 2)

let test_linux_block_wakeup () =
  let engine, _, linux = make Linux.cfs_default in
  let stages = ref [] in
  let worker =
    Linux.spawn linux 
      (Coro.Compute
         ( Time.us 10,
           fun () ->
             stages := "worked" :: !stages;
             Coro.Block
               (fun () ->
                 stages := "woken" :: !stages;
                 Coro.Exit) ))
  in
  ignore
    (Linux.spawn linux
       (Coro.Compute (Time.us 100, fun () ->
            Linux.wakeup linux worker;
            Coro.Exit)));
  Engine.run ~until:(Time.ms 10) engine;
  check (Alcotest.list Alcotest.string) "block then wake" [ "worked"; "woken" ]
    (List.rev !stages)

let test_linux_pending_wake_not_lost () =
  let engine, _, linux = make Linux.cfs_default in
  let finished = ref false in
  let sleeper = ref None in
  let worker =
    Linux.spawn linux 
      (Coro.Compute
         ( Time.ms 1,
           fun () ->
             Coro.Block (fun () -> finished := true; Coro.Exit) ))
  in
  sleeper := Some worker;
  (* Wake it while it is still computing: the wake must be buffered. *)
  Engine.at engine (Time.us 100) (fun () -> Linux.wakeup linux worker);
  Engine.run ~until:(Time.ms 10) engine;
  check Alcotest.bool "pending wake consumed at block" true !finished

let test_linux_wakeup_latency_low_load () =
  (* With idle cores, a wakeup should start within a few microseconds. *)
  let engine, _, linux = make ~cores:4 Linux.cfs_default in
  let worker = Linux.spawn linux (Coro.Block (fun () -> Coro.Exit)) in
  (* let it block first *)
  Engine.at engine (Time.us 50) (fun () -> Linux.wakeup linux worker);
  Engine.run ~until:(Time.ms 10) engine;
  let h = Linux.wakeup_hist linux in
  check Alcotest.int "one wakeup sample" 1 (Histogram.count h);
  check Alcotest.bool "wakeup < 5us on idle system" true
    (Histogram.max_value h < Time.us 5)

let test_linux_rr_slicing () =
  (* Two CPU-hogs on one core under RR must interleave at the slice. *)
  let engine, _, linux = make ~cores:1 (Linux.Rr { hz = 1000; slice = Time.ms 10 }) in
  let first_done = ref 0 and second_done = ref 0 in
  ignore
    (Linux.spawn linux
       (Coro.Compute (Time.ms 30, fun () -> first_done := Engine.now engine; Coro.Exit)));
  ignore
    (Linux.spawn linux
       (Coro.Compute (Time.ms 30, fun () -> second_done := Engine.now engine; Coro.Exit)));
  Engine.run ~until:(Time.ms 200) engine;
  (* With 10ms slices they interleave: both finish close together (~60ms),
     rather than one at 30ms and the other at 60. *)
  check Alcotest.bool "interleaved" true
    (abs (!first_done - !second_done) < Time.ms 15);
  check Alcotest.bool "both near 60ms" true (!first_done > Time.ms 45)

let test_linux_fifo_like_without_preemption () =
  (* Huge slice = no interleaving: first finishes ~30ms, second ~60ms. *)
  let engine, _, linux = make ~cores:1 (Linux.Rr { hz = 1000; slice = Time.s 100 }) in
  let first_done = ref 0 and second_done = ref 0 in
  ignore
    (Linux.spawn linux
       (Coro.Compute (Time.ms 30, fun () -> first_done := Engine.now engine; Coro.Exit)));
  ignore
    (Linux.spawn linux
       (Coro.Compute (Time.ms 30, fun () -> second_done := Engine.now engine; Coro.Exit)));
  Engine.run ~until:(Time.ms 200) engine;
  check Alcotest.bool "a first" true (!first_done < Time.ms 35);
  check Alcotest.bool "b second" true (!second_done > Time.ms 55)

let test_linux_cfs_fairness () =
  (* Two infinite-ish hogs on one core: CFS should give each ~half. *)
  let engine, _, linux = make ~cores:1 Linux.cfs_default in
  let a_ran = ref 0 and b_ran = ref 0 in
  let hog counter =
    let rec go () =
      Coro.Compute
        ( Time.ms 1,
          fun () ->
            counter := !counter + Time.ms 1;
            if Engine.now engine < Time.ms 400 then go () else Coro.Exit )
    in
    go ()
  in
  ignore (Linux.spawn linux (hog a_ran));
  ignore (Linux.spawn linux (hog b_ran));
  Engine.run ~until:(Time.ms 500) engine;
  let total = !a_ran + !b_ran in
  let ratio = float_of_int !a_ran /. float_of_int total in
  check Alcotest.bool "roughly fair split" true (ratio > 0.4 && ratio < 0.6)

let test_linux_eevdf_runs () =
  let engine, _, linux = make ~cores:2 Linux.eevdf_tuned in
  let finished = ref 0 in
  for _ = 1 to 8 do
    ignore
      (Linux.spawn linux
         (Coro.Compute (Time.us 500, fun () -> incr finished; Coro.Exit)))
  done;
  Engine.run ~until:(Time.ms 50) engine;
  check Alcotest.int "all finish" 8 !finished

let test_linux_steal_balances () =
  (* Pin nothing; all spawned while cpu0 busy: idle cores should pull. *)
  let engine, _, linux = make ~cores:4 Linux.cfs_default in
  let finished = ref 0 in
  let last_done = ref 0 in
  for _ = 1 to 8 do
    ignore
      (Linux.spawn linux
         (Coro.Compute
            (Time.ms 1, fun () -> incr finished; last_done := Engine.now engine; Coro.Exit)))
  done;
  Engine.run ~until:(Time.ms 50) engine;
  check Alcotest.int "all ran" 8 !finished;
  (* 8 x 1ms over 4 cores: should complete in well under 8ms *)
  check Alcotest.bool "parallelised" true (!last_done < Time.ms 4)

let test_linux_yield_requeues () =
  let engine, _, linux = make ~cores:1 Linux.cfs_default in
  let order = ref [] in
  ignore
    (Linux.spawn linux
       (Coro.Compute
          ( Time.us 10,
            fun () ->
              order := "a1" :: !order;
              Coro.Yield
                (fun () ->
                  order := "a2" :: !order;
                  Coro.Exit) )));
  ignore
    (Linux.spawn linux
       (Coro.Compute (Time.us 10, fun () -> order := "b" :: !order; Coro.Exit)));
  Engine.run ~until:(Time.ms 10) engine;
  check Alcotest.bool "b ran between a's yield" true (List.rev !order = [ "a1"; "b"; "a2" ])

(* ---- kernel module / binding rule ---- *)

let make_kmod () =
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:1 ~cores_per_socket:4) in
  (engine, machine, Kmod.create machine)

let test_kmod_park_and_activate () =
  let _, _, kmod = make_kmod () in
  let kt = Kmod.park_on_cpu kmod ~app:1 ~core:0 in
  check Alcotest.bool "parked inactive" false (Kmod.is_active kt);
  ignore (Kmod.activate kmod kt);
  check Alcotest.bool "active" true (Kmod.is_active kt);
  check Alcotest.bool "registered as active on core" true
    (match Kmod.active_on kmod ~core:0 with Some k -> k == kt | None -> false)

let test_kmod_binding_rule_on_activate () =
  let _, _, kmod = make_kmod () in
  let a = Kmod.park_on_cpu kmod ~app:1 ~core:0 in
  let b = Kmod.park_on_cpu kmod ~app:2 ~core:0 in
  ignore (Kmod.activate kmod a);
  check Alcotest.bool "second activation violates the rule" true
    (try
       ignore (Kmod.activate kmod b);
       false
     with Kmod.Binding_rule_violation _ -> true)

let test_kmod_switch_to () =
  let _, machine, kmod = make_kmod () in
  let a = Kmod.park_on_cpu kmod ~app:1 ~core:2 in
  let b = Kmod.park_on_cpu kmod ~app:2 ~core:2 in
  ignore (Kmod.activate kmod a);
  let cost = Kmod.switch_to kmod ~from:a ~target:b in
  check Alcotest.int "app switch cost is the paper's 1905ns" Costs.app_switch_ns cost;
  check Alcotest.bool "a parked" false (Kmod.is_active a);
  check Alcotest.bool "b active" true (Kmod.is_active b);
  (* the UINTR context followed the switch *)
  check Alcotest.bool "b's context installed" true
    (match Machine.uintr_installed machine ~core:2 with
    | Some ctx -> ctx == Kmod.uintr_ctx b
    | None -> false)

(* An app switch allocates nothing: the core holds its installed UINTR
   context as a plain value and the context its core as an int, so
   installing one boxes no option. *)
let test_kmod_switch_allocates_nothing () =
  let _, _, kmod = make_kmod () in
  let a = Kmod.park_on_cpu kmod ~app:1 ~core:2 in
  let b = Kmod.park_on_cpu kmod ~app:2 ~core:2 in
  ignore (Kmod.activate kmod a);
  let before = Gc.minor_words () in
  for _ = 1 to 1_000 do
    ignore (Kmod.switch_to kmod ~from:a ~target:b);
    ignore (Kmod.switch_to kmod ~from:b ~target:a)
  done;
  let words = Gc.minor_words () -. before in
  check (Alcotest.float 0.0) "minor words for 1,000 round trips" 0.0 words

let test_kmod_switch_cross_core_rejected () =
  let _, _, kmod = make_kmod () in
  let a = Kmod.park_on_cpu kmod ~app:1 ~core:0 in
  let b = Kmod.park_on_cpu kmod ~app:2 ~core:1 in
  ignore (Kmod.activate kmod a);
  check Alcotest.bool "cross-core switch rejected" true
    (try
       ignore (Kmod.switch_to kmod ~from:a ~target:b);
       false
     with Kmod.Binding_rule_violation _ -> true)

let test_kmod_switch_from_inactive_rejected () =
  let _, _, kmod = make_kmod () in
  let a = Kmod.park_on_cpu kmod ~app:1 ~core:0 in
  let b = Kmod.park_on_cpu kmod ~app:2 ~core:0 in
  check Alcotest.bool "from must be active" true
    (try
       ignore (Kmod.switch_to kmod ~from:a ~target:b);
       false
     with Kmod.Binding_rule_violation _ -> true)

let test_kmod_timer_enable_sets_sn () =
  let _, _, kmod = make_kmod () in
  let a = Kmod.park_on_cpu kmod ~app:1 ~core:0 in
  Kmod.timer_enable kmod a;
  check Alcotest.bool "SN set" true (Machine.uintr_sn (Kmod.uintr_ctx a))

(* ---- Fair: the shared fair class (its runqueue is "krq" below) ---- *)

module Fair = Skyloft_kernel.Fair

type qe = { name : string; vr : float; dl : float }

let mk_e ?(vruntime = 0.0) ?(deadline = 0.0) tid =
  { name = Printf.sprintf "t%d" tid; vr = vruntime; dl = deadline }

let add ?key q e =
  Fair.add q ~key:(Option.value key ~default:e.vr) ~vruntime:e.vr ~deadline:e.dl e

let names q = List.map (fun e -> e.name) (Fair.to_list q)
let name_of = function Some e -> e.name | None -> "?"

let test_krq_fifo_under_equal_keys () =
  (* RR enqueues everything at key 0.0: the order must degenerate to
     enqueue-order FIFO, exactly like the old list append *)
  let q = Fair.create () in
  let es = List.init 5 mk_e in
  List.iter (add ~key:0.0 q) es;
  check (Alcotest.list Alcotest.string) "insertion order"
    [ "t0"; "t1"; "t2"; "t3"; "t4" ] (names q);
  check Alcotest.string "FIFO head" "t0" (name_of (Fair.pop_min_key q));
  check Alcotest.string "next head" "t1" (name_of (Fair.pop_min_key q));
  (* a re-enqueued element goes to the back, not its old position *)
  add ~key:0.0 q (List.nth es 0);
  check (Alcotest.list Alcotest.string) "requeue at tail"
    [ "t2"; "t3"; "t4"; "t0" ] (names q)

let test_krq_min_key_and_ties () =
  let q = Fair.create () in
  List.iter (add q)
    [ mk_e ~vruntime:5.0 1; mk_e ~vruntime:3.0 2; mk_e ~vruntime:3.0 3 ];
  check (Alcotest.float 1e-9) "min vruntime" 3.0 (Fair.leftmost_vruntime q);
  check (Alcotest.float 1e-9) "average vruntime" (11.0 /. 3.0)
    (Fair.avg_vruntime q ~curr:None);
  check (Alcotest.float 1e-9) "average with the running element" 4.0
    (Fair.avg_vruntime q ~curr:(Some 5.0));
  check Alcotest.string "smallest vruntime wins" "t2" (name_of (Fair.pop_min_key q));
  check Alcotest.string "tie broken by enqueue order" "t3"
    (name_of (Fair.pop_min_key q))

let test_krq_eevdf_eligible_pick () =
  let fill () =
    let q = Fair.create () in
    (* eligible = vruntime <= avg; among those, earliest deadline wins *)
    List.iter (add q)
      [
        mk_e ~vruntime:1.0 ~deadline:9.0 1;
        mk_e ~vruntime:2.0 ~deadline:4.0 2;
        mk_e ~vruntime:8.0 ~deadline:1.0 3;
      ];
    q
  in
  check Alcotest.string "eligible min-deadline" "t2"
    (name_of (Fair.pop_eevdf (fill ()) ~avg:5.0));
  check Alcotest.string "nobody eligible: global min-deadline" "t3"
    (name_of (Fair.pop_eevdf (fill ()) ~avg:0.5));
  (* deadline ties break by enqueue order, like the old left fold *)
  let q = fill () in
  add q (mk_e ~vruntime:2.0 ~deadline:4.0 4);
  check Alcotest.string "deadline tie by enqueue order" "t2"
    (name_of (Fair.pop_eevdf q ~avg:5.0));
  check Alcotest.string "then the later enqueue" "t4"
    (name_of (Fair.pop_eevdf q ~avg:5.0))

(* The edges no schbench golden sees: a strict [<] eligibility test, a
   deadline tie broken the wrong way, or a bogus empty average moved no
   fig5 cell. *)
let test_krq_edges () =
  let q = Fair.create () in
  add q (mk_e ~vruntime:1.0 ~deadline:9.0 1);
  add q (mk_e ~vruntime:3.0 ~deadline:2.0 2);
  check Alcotest.string "key = bound is eligible" "t2"
    (name_of (Fair.pop_eevdf q ~avg:3.0));
  let q = Fair.create () in
  add q (mk_e ~vruntime:9.0 ~deadline:5.0 1);
  add q (mk_e ~vruntime:7.0 ~deadline:5.0 2);
  add q (mk_e ~vruntime:8.0 ~deadline:5.0 3);
  check Alcotest.string "deadline tie among the ineligible: earliest enqueue"
    "t1" (name_of (Fair.pop_eevdf q ~avg:0.0));
  check Alcotest.string "deadline tie among the eligible: earliest enqueue"
    "t2" (name_of (Fair.pop_eevdf q ~avg:10.0));
  let q = Fair.create () in
  Fair.advance_min q 42.0;
  check (Alcotest.float 0.0) "empty queue: average is min_vruntime" 42.0
    (Fair.avg_vruntime q ~curr:None);
  check (Alcotest.float 0.0) "running element alone: its own vruntime" 50.0
    (Fair.avg_vruntime q ~curr:(Some 50.0));
  Fair.update_min q ~curr:infinity;
  check (Alcotest.float 0.0) "idle and empty: min_vruntime stays" 42.0
    (Fair.min_vruntime q);
  Fair.update_min q ~curr:40.0;
  check (Alcotest.float 0.0) "min_vruntime never goes back" 42.0 (Fair.min_vruntime q)

let test_krq_pops_drain () =
  let q = Fair.create () in
  check Alcotest.bool "empty: no min" true (Fair.pop_min_key q = None);
  check Alcotest.bool "empty: no EEVDF pick" true (Fair.pop_eevdf q ~avg:0.0 = None);
  check Alcotest.bool "empty: no earliest" true (Fair.pop_earliest q = None);
  add q (mk_e ~vruntime:1.0 1);
  add q (mk_e ~vruntime:2.0 2);
  check Alcotest.int "two queued" 2 (Fair.length q);
  ignore (Fair.pop_min_key q);
  ignore (Fair.pop_earliest q);
  check Alcotest.bool "empty after two pops" true (Fair.is_empty q);
  check (Alcotest.float 1e-9) "min vruntime of empty" infinity
    (Fair.leftmost_vruntime q)

let test_krq_earliest_enqueued () =
  let q = Fair.create () in
  List.iter (add q)
    [ mk_e ~vruntime:9.0 1; mk_e ~vruntime:1.0 2; mk_e ~vruntime:2.0 3 ];
  (* the steal victim is the earliest-ENQUEUED element, not the one with
     the smallest key *)
  check Alcotest.string "earliest enqueued" "t1" (name_of (Fair.pop_earliest q));
  check Alcotest.string "next earliest" "t2" (name_of (Fair.pop_earliest q));
  check Alcotest.string "smallest key left" "t3" (name_of (Fair.pop_min_key q))

(* Fair's runqueue vs the old list semantics under random interleavings:
   an association list kept in enqueue order and searched with exactly
   the pre-tree folds must agree on every pick and query after every
   operation. *)
let prop_krq_matches_list_reference =
  let op_gen =
    QCheck.(
      list_of_size (Gen.int_range 0 200)
        (triple (int_range 0 3) (int_range 0 30) (int_range 0 100)))
  in
  QCheck.Test.make ~name:"krq: agrees with the list reference" ~count:100 op_gen
    (fun ops ->
      let q = Fair.create () in
      (* reference: (key, seq, e) list in enqueue order *)
      let reference = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      let fold_min better =
        List.fold_left
          (fun acc x ->
            match acc with Some b when not (better x b) -> acc | _ -> Some x)
          None !reference
      in
      let by_key (k1, s1, _) (k2, s2, _) = k1 < k2 || (k1 = k2 && s1 < s2) in
      let by_dl (_, s1, e1) (_, s2, e2) = e1.dl < e2.dl || (e1.dl = e2.dl && s1 < s2) in
      let drop = function
        | None -> None
        | Some (_, s, e) ->
            reference := List.filter (fun (_, s', _) -> s' <> s) !reference;
            Some e
      in
      let same a b = name_of a = name_of b && (a = None) = (b = None) in
      List.iter
        (fun (op, tid, key10) ->
          let key = float_of_int key10 /. 10.0 in
          (match op with
          | 0 ->
              let e = mk_e ~vruntime:key ~deadline:(float_of_int tid) tid in
              add q e;
              reference := !reference @ [ (key, !seq, e) ];
              incr seq
          | 1 -> if not (same (Fair.pop_min_key q) (drop (fold_min by_key))) then ok := false
          | 2 ->
              let eligible = List.filter (fun (k, _, _) -> k <= key) !reference in
              let pick =
                match eligible with
                | [] -> fold_min by_dl
                | _ ->
                    List.fold_left
                      (fun acc x ->
                        match acc with Some b when not (by_dl x b) -> acc | _ -> Some x)
                      None eligible
              in
              if not (same (Fair.pop_eevdf q ~avg:key) (drop pick)) then ok := false
          | _ -> (
              let first = match !reference with [] -> None | x :: _ -> Some x in
              if not (same (Fair.pop_earliest q) (drop first)) then ok := false));
          let sum = List.fold_left (fun acc (_, _, e) -> acc +. e.vr) 0.0 !reference in
          let mn =
            List.fold_left (fun acc (_, _, e) -> Float.min acc e.vr) infinity !reference
          in
          let n = List.length !reference in
          if
            Fair.length q <> n
            || abs_float
                 (Fair.avg_vruntime q ~curr:None
                 -. if n = 0 then 0.0 else sum /. float_of_int n)
               > 1e-6
            || Fair.leftmost_vruntime q <> mn
          then ok := false)
        ops;
      !ok)

(* ---- the Skyloft fair policy vs the O(n) scans it replaced ---- *)

module Task = Skyloft.Task
module Sched_ops = Skyloft.Sched_ops
module Runqueue = Skyloft.Runqueue

(* The pre-merge Skyloft CFS and EEVDF ports, kept as the reference:
   per-core FIFO runqueues searched by O(n) scans, the min_vruntime
   table, and the same Table 5 parameters.

   One thing is not theirs: the EEVDF average sums the vruntimes in the
   tree's order, over a shadow [Fair.t] that mirrors each runqueue.  A
   list scan and a tree add the same floats in different orders, and
   Skyloft truncates the lag to an int, so one ulp of the average can
   become 1 ns of vruntime and, later, a different pick.  The shadow
   leaves only its sum to the reference; a shadow dequeue is checked to
   take the task the scan picked. *)
let ref_policy ~eevdf : Sched_ops.ctor =
 fun view ->
  let min_granularity = Time.of_us_float 12.5
  and sched_latency = Time.us 50
  and base_slice = Time.of_us_float 12.5 in
  let queues = Hashtbl.create 32 and min_v = Hashtbl.create 32 in
  let shadows = Hashtbl.create 32 in
  Array.iter
    (fun core ->
      Hashtbl.replace queues core (Runqueue.create ());
      Hashtbl.replace shadows core (Fair.create ());
      Hashtbl.replace min_v core 0.0)
    view.Sched_ops.cores;
  let q cpu = Hashtbl.find queues cpu in
  let shadow cpu = Hashtbl.find shadows cpu in
  let push cpu task =
    Runqueue.push_tail (q cpu) task;
    if eevdf then
      Fair.add (shadow cpu) ~key:task.Task.policy_f1 ~vruntime:task.Task.policy_f1
        ~deadline:task.Task.policy_f2 task
  in
  let get_min cpu = Hashtbl.find min_v cpu in
  let bump_min cpu v = if v > get_min cpu then Hashtbl.replace min_v cpu v in
  let charge cpu task =
    let ran = view.now () - task.Task.run_start in
    if ran > 0 then task.Task.policy_f1 <- task.Task.policy_f1 +. float_of_int ran;
    let leftmost = ref task.Task.policy_f1 in
    Runqueue.iter
      (fun t -> if t.Task.policy_f1 < !leftmost then leftmost := t.Task.policy_f1)
      (q cpu);
    bump_min cpu !leftmost
  in
  let avg_vruntime cpu =
    if Runqueue.is_empty (q cpu) then get_min cpu
    else Fair.avg_vruntime (shadow cpu) ~curr:None
  in
  let remove cpu task =
    (if eevdf then
       match Fair.pop_eevdf (shadow cpu) ~avg:(avg_vruntime cpu) with
       | Some t when t == task -> ()
       | _ -> failwith "the tree's EEVDF pick is not the scan's");
    ignore (Runqueue.remove (q cpu) task)
  in
  let set_deadline task =
    task.Task.policy_f2 <- task.Task.policy_f1 +. float_of_int base_slice
  in
  let pick cpu =
    if eevdf then begin
      let avg = avg_vruntime cpu in
      let best_eligible = ref None and best_any = ref None in
      let better cand = function
        | None -> true
        | Some b -> cand.Task.policy_f2 < b.Task.policy_f2
      in
      Runqueue.iter
        (fun task ->
          if better task !best_any then best_any := Some task;
          if task.Task.policy_f1 <= avg && better task !best_eligible then
            best_eligible := Some task)
        (q cpu);
      match !best_eligible with Some _ as r -> r | None -> !best_any
    end
    else begin
      let best = ref None in
      Runqueue.iter
        (fun task ->
          match !best with
          | None -> best := Some task
          | Some b -> if task.Task.policy_f1 < b.Task.policy_f1 then best := Some task)
        (q cpu);
      !best
    end
  in
  let least_loaded () =
    Array.fold_left
      (fun best core ->
        if Runqueue.length (q core) < Runqueue.length (q best) then core else best)
      view.cores.(0) view.cores
  in
  {
    Sched_ops.null_instance with
    task_init =
      (fun task ->
        task.Task.policy_f1 <- get_min task.Task.last_core;
        if eevdf then set_deadline task);
    task_enqueue =
      (fun ~cpu ~reason task ->
        (match reason with
        | Sched_ops.Enq_preempted | Sched_ops.Enq_yielded ->
            charge cpu task;
            if eevdf && task.Task.policy_f1 >= task.Task.policy_f2 then set_deadline task
        | Sched_ops.Enq_new ->
            task.Task.policy_f1 <- Float.max task.Task.policy_f1 (get_min cpu);
            if eevdf then set_deadline task);
        push cpu task);
    task_dequeue =
      (fun ~cpu ->
        match pick cpu with
        | None -> None
        | Some task ->
            remove cpu task;
            bump_min cpu task.Task.policy_f1;
            Some task);
    task_block =
      (fun ~cpu task ->
        charge cpu task;
        if eevdf then begin
          let lag = avg_vruntime cpu -. task.Task.policy_f1 in
          let cap = float_of_int base_slice in
          task.Task.policy_i <- int_of_float (Float.max (-.cap) (Float.min cap lag))
        end);
    task_wakeup =
      (fun ~waker_cpu:_ task ->
        let target =
          match view.Sched_ops.pick_idle () with
          | Some core -> core
          | None -> least_loaded ()
        in
        if eevdf then begin
          task.Task.policy_f1 <- avg_vruntime target -. float_of_int task.Task.policy_i;
          set_deadline task
        end
        else begin
          if Hashtbl.mem min_v task.Task.last_core && task.Task.last_core <> target then
            task.Task.policy_f1 <-
              task.Task.policy_f1 -. get_min task.Task.last_core +. get_min target;
          let credit = float_of_int sched_latency /. 2.0 in
          task.Task.policy_f1 <- Float.max task.Task.policy_f1 (get_min target -. credit)
        end;
        task.Task.last_core <- target;
        push target task;
        target);
    sched_timer_tick =
      (fun ~cpu task ->
        let nr = Runqueue.length (q cpu) + 1 in
        let slice =
          if eevdf then base_slice
          else max min_granularity (sched_latency / nr)
        in
        (not (Runqueue.is_empty (q cpu))) && view.now () - task.Task.run_start >= slice);
    sched_balance =
      (fun ~cpu ->
        let stolen = ref None in
        Array.iter
          (fun core ->
            if !stolen = None && core <> cpu then
              match pick core with
              | Some task ->
                  remove core task;
                  task.Task.policy_f1 <-
                    task.Task.policy_f1 -. get_min core +. get_min cpu;
                  if eevdf then set_deadline task;
                  stolen := Some task
              | None -> ())
          view.cores;
        !stolen);
  }

(* One simulated host for a policy instance: three cores, what each one
   runs, the blocked tasks, and the tasks by id. *)
type host = {
  inst : Sched_ops.instance;
  running : Task.t option array;
  mutable blocked : Task.t list;
  mutable tasks : Task.t list;
}

let host ctor ~now =
  let cores = [| 0; 1; 2 |] in
  let running = Array.make 3 None in
  let is_idle c = c >= 0 && c < 3 && running.(c) = None in
  let view =
    {
      Sched_ops.cores;
      slots = [| 0; 1; 2 |];
      pick_idle = (fun () -> Array.find_opt is_idle cores);
      now = (fun () -> !now);
    }
  in
  { inst = ctor view; running; blocked = []; tasks = [] }

(* Apply one operation to a host; the result is what the policy decided
   (a task's creation index, a core, a preemption request), for
   comparison.  A task's name is its creation index. *)
let task_id (t : Task.t) = int_of_string t.Task.name

let step h ~now (op, c, arg) =
  let id = function Some t -> task_id t | None -> -1 in
  match op with
  | 0 ->
      let t =
        Task.create ~app:1 ~name:(string_of_int (List.length h.tasks))
          (Coro.compute_then_exit 1)
      in
      h.tasks <- t :: h.tasks;
      t.Task.last_core <- c;
      h.inst.task_init t;
      h.inst.task_enqueue ~cpu:c ~reason:Sched_ops.Enq_new t;
      task_id t
  | 1 -> (
      match h.running.(c) with
      | Some _ -> -2
      | None ->
          let next =
            match h.inst.task_dequeue ~cpu:c with
            | Some _ as t -> t
            | None -> h.inst.sched_balance ~cpu:c
          in
          (match next with
          | Some t ->
              t.Task.run_start <- now;
              t.Task.last_core <- c;
              h.running.(c) <- next
          | None -> ());
          id next)
  | 2 -> (
      match h.running.(c) with
      | Some t ->
          h.running.(c) <- None;
          h.inst.task_enqueue ~cpu:c
            ~reason:(if arg land 1 = 0 then Sched_ops.Enq_preempted else Enq_yielded)
            t;
          task_id t
      | None -> -2)
  | 3 -> (
      match h.running.(c) with
      | Some t ->
          h.running.(c) <- None;
          h.inst.task_block ~cpu:c t;
          h.blocked <- h.blocked @ [ t ];
          task_id t
      | None -> -2)
  | 4 -> (
      match h.blocked with
      | [] -> -2
      | blocked ->
          let t = List.nth blocked (arg mod List.length blocked) in
          h.blocked <- List.filter (fun t' -> t' != t) blocked;
          h.inst.task_wakeup ~waker_cpu:c t)
  | _ -> (
      match h.running.(c) with
      | Some t -> if h.inst.sched_timer_tick ~cpu:c t then 1 else 0
      | None -> -2)

(* min_vruntime of [core], read through [task_init]. *)
let min_vruntime_of h core =
  let probe = Task.create ~app:1 ~name:"probe" (Coro.compute_then_exit 1) in
  probe.Task.last_core <- core;
  h.inst.task_init probe;
  probe.Task.policy_f1

let prop_fair_policy_matches_scans =
  let op_gen =
    QCheck.(
      list_of_size (Gen.int_range 0 300)
        (pair (int_range 0 6) (triple (int_range 0 5) (int_range 0 2) (int_range 0 100))))
  in
  QCheck.Test.make ~name:"fair policy: agrees with the O(n) scans" ~count:500 op_gen
    (fun ops ->
      List.for_all
        (fun eevdf ->
          let now = ref 0 in
          let merged =
            host (if eevdf then Skyloft_policies.Fair_percpu.eevdf ()
                  else Skyloft_policies.Fair_percpu.cfs ()) ~now
          in
          let reference = host (ref_policy ~eevdf) ~now in
          List.for_all
            (fun (dt, (op, c, arg)) ->
              now := !now + (dt * 2_500);
              let decided = step merged ~now:!now (op, c, arg) in
              step reference ~now:!now (op, c, arg) = decided
              && List.for_all
                   (fun core -> min_vruntime_of merged core = min_vruntime_of reference core)
                   [ 0; 1; 2 ])
            ops)
        [ false; true ])

let suite =
  [
    Alcotest.test_case "linux: run to completion" `Quick test_linux_runs_to_completion;
    Alcotest.test_case "linux: parallel threads" `Quick test_linux_parallel_threads;
    Alcotest.test_case "linux: block/wakeup" `Quick test_linux_block_wakeup;
    Alcotest.test_case "linux: pending wake" `Quick test_linux_pending_wake_not_lost;
    Alcotest.test_case "linux: wakeup latency low load" `Quick
      test_linux_wakeup_latency_low_load;
    Alcotest.test_case "linux: RR slicing" `Quick test_linux_rr_slicing;
    Alcotest.test_case "linux: no preemption with huge slice" `Quick
      test_linux_fifo_like_without_preemption;
    Alcotest.test_case "linux: CFS fairness" `Quick test_linux_cfs_fairness;
    Alcotest.test_case "linux: EEVDF runs" `Quick test_linux_eevdf_runs;
    Alcotest.test_case "linux: idle stealing" `Quick test_linux_steal_balances;
    Alcotest.test_case "linux: yield requeues" `Quick test_linux_yield_requeues;
    Alcotest.test_case "kmod: park/activate" `Quick test_kmod_park_and_activate;
    Alcotest.test_case "kmod: binding rule on activate" `Quick
      test_kmod_binding_rule_on_activate;
    Alcotest.test_case "kmod: switch_to" `Quick test_kmod_switch_to;
    Alcotest.test_case "kmod: an app switch allocates nothing" `Quick
      test_kmod_switch_allocates_nothing;
    Alcotest.test_case "kmod: cross-core switch rejected" `Quick
      test_kmod_switch_cross_core_rejected;
    Alcotest.test_case "kmod: switch from inactive rejected" `Quick
      test_kmod_switch_from_inactive_rejected;
    Alcotest.test_case "kmod: timer enable" `Quick test_kmod_timer_enable_sets_sn;
    Alcotest.test_case "krq: FIFO under equal keys" `Quick
      test_krq_fifo_under_equal_keys;
    Alcotest.test_case "krq: min key and ties" `Quick test_krq_min_key_and_ties;
    Alcotest.test_case "krq: EEVDF eligible pick" `Quick test_krq_eevdf_eligible_pick;
    Alcotest.test_case "krq: pops drain the queue" `Quick test_krq_pops_drain;
    Alcotest.test_case "krq: earliest enqueued" `Quick test_krq_earliest_enqueued;
    Alcotest.test_case "krq: eligibility, tie and empty edges" `Quick test_krq_edges;
    QCheck_alcotest.to_alcotest prop_krq_matches_list_reference;
    QCheck_alcotest.to_alcotest prop_fair_policy_matches_scans;
  ]
