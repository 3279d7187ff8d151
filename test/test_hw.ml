(* Tests for the hardware model: topology, costs (Table 6 shape), machine
   interrupt plumbing, UINTR semantics, UITT. *)

module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Topology = Skyloft_hw.Topology
module Costs = Skyloft_hw.Costs
module Vectors = Skyloft_hw.Vectors
module Machine = Skyloft_hw.Machine

let check = Alcotest.check

(* ---- Topology ---- *)

let test_topology_basics () =
  let t = Topology.paper_server in
  check Alcotest.int "48 cores" 48 (Topology.total_cores t);
  check Alcotest.bool "cross numa" true (Topology.cross_numa t 0 24);
  check Alcotest.bool "same numa" false (Topology.cross_numa t 0 23);
  check Alcotest.bool "last core on the second socket" false (Topology.cross_numa t 24 47)

let test_topology_invalid () =
  check Alcotest.bool "bad core id" true
    (try
       ignore (Topology.cross_numa Topology.paper_server 0 48);
       false
     with Invalid_argument _ -> true);
  check Alcotest.bool "bad create" true
    (try
       ignore (Topology.create ~sockets:0 ~cores_per_socket:4);
       false
     with Invalid_argument _ -> true)

(* ---- Costs: composed mechanisms track the paper's Table 6 ---- *)

let within_pct ~pct a b =
  let a = float_of_int a and b = float_of_int b in
  abs_float (a -. b) <= pct /. 100.0 *. b

let test_costs_table6_close_to_paper () =
  List.iter2
    (fun (m : Costs.mechanism) (pname, psend, precv, pdeliv) ->
      check Alcotest.string "row name" pname m.name;
      (match (m.send, psend) with
      | Some s, Some ps ->
          check Alcotest.bool
            (Printf.sprintf "%s send %d ~ %d" m.name s ps)
            true (within_pct ~pct:10.0 s ps)
      | None, None -> ()
      | _ -> Alcotest.fail "send column shape mismatch");
      check Alcotest.bool
        (Printf.sprintf "%s receive %d ~ %d" m.name m.receive precv)
        true
        (within_pct ~pct:10.0 m.receive precv);
      match (m.delivery, pdeliv) with
      | Some d, Some pd ->
          check Alcotest.bool
            (Printf.sprintf "%s delivery %d ~ %d" m.name d pd)
            true (within_pct ~pct:10.0 d pd)
      | None, None -> ()
      | _ -> Alcotest.fail "delivery column shape mismatch")
    Costs.table6 Costs.paper_table6

let test_costs_orderings () =
  (* The qualitative claims of §5.4. *)
  let get = function Some x -> x | None -> 0 in
  check Alcotest.bool "signal send >> user IPI send" true
    (get Costs.signal.send > 5 * get Costs.user_ipi.send);
  check Alcotest.bool "kernel IPI send > user IPI send" true
    (get Costs.kernel_ipi.send > get Costs.user_ipi.send);
  check Alcotest.bool "signal receive ~ 10x user IPI receive" true
    (Costs.signal.receive > 8 * Costs.user_ipi.receive);
  check Alcotest.bool "setitimer ~ 8x user timer" true
    (Costs.setitimer.receive > 7 * Costs.user_timer.receive);
  check Alcotest.bool "user timer receive < user IPI receive" true
    (Costs.user_timer.receive < Costs.user_ipi.receive);
  check Alcotest.bool "cross-NUMA delivery penalty" true
    (get Costs.user_ipi_cross_numa.delivery > get Costs.user_ipi.delivery)

let test_costs_ns_conversions () =
  check Alcotest.int "user IPI send ns" (Time.of_cycles 167)
    (Costs.uipi_send_ns ~cross_numa:false);
  check Alcotest.bool "senduipi_sn ~123 cycles" true
    (within_pct ~pct:5.0 Costs.senduipi_sn 123)

(* ---- Machine ---- *)

let make_machine () =
  let engine = Engine.create () in
  let machine = Machine.create engine (Topology.create ~sockets:2 ~cores_per_socket:4) in
  (engine, machine)

let test_machine_kernel_ipi_delivery () =
  let engine, machine = make_machine () in
  let got = ref [] in
  Machine.set_kernel_handler (Machine.core machine 1) (fun v ->
      got := (Engine.now engine, v) :: !got);
  let resched = 0xfd in
  Machine.send_ipi machine ~src:0 ~dst:1 resched;
  Engine.run engine;
  match !got with
  | [ (at, v) ] ->
      check Alcotest.int "vector" resched v;
      check Alcotest.int "arrives after kipi delivery" Costs.kipi_delivery_ns at
  | _ -> Alcotest.fail "expected exactly one interrupt"

let test_machine_masking () =
  let engine, machine = make_machine () in
  let core = Machine.core machine 2 in
  let got = ref [] in
  Machine.set_kernel_handler core (fun v -> got := v :: !got);
  Machine.mask_interrupts core;
  Machine.send_ipi machine ~src:0 ~dst:2 11;
  Machine.send_ipi machine ~src:0 ~dst:2 22;
  Engine.run engine;
  check (Alcotest.list Alcotest.int) "nothing while masked" [] !got;
  Machine.unmask_interrupts core;
  check (Alcotest.list Alcotest.int) "delivered in arrival order" [ 11; 22 ]
    (List.rev !got)

(* Regression: a handler that re-masks mid-replay must not let vectors
   raised while re-masked overtake the still-queued older ones.  The
   handler for 11 re-masks and lets time pass (pumping the engine) until
   its IPI 44 lands in the pending queue; 22 and 33 were queued before 44
   existed, so the final delivery order is 11, 22, 33, 44 — the buggy
   replay pushed the remainder back on top of 44 and delivered 44 ahead
   of 22 and 33. *)
let test_machine_unmask_remask_keeps_arrival_order () =
  let engine, machine = make_machine () in
  let core = Machine.core machine 2 in
  let got = ref [] in
  Machine.set_kernel_handler core (fun v ->
      got := v :: !got;
      if v = 11 then begin
        (* the handler holds the mask while newer work arrives: 44 is
           queued in [pending] before the replay re-queues 22 and 33 *)
        Machine.mask_interrupts core;
        Machine.send_ipi machine ~src:0 ~dst:2 44;
        Engine.run engine
      end);
  Machine.mask_interrupts core;
  Machine.send_ipi machine ~src:0 ~dst:2 11;
  Machine.send_ipi machine ~src:0 ~dst:2 22;
  Machine.send_ipi machine ~src:0 ~dst:2 33;
  Engine.run engine;
  check (Alcotest.list Alcotest.int) "nothing while masked" [] !got;
  (* replay dispatches 11, whose handler re-masks: 22, 33 and the newer
     44 stay queued *)
  Machine.unmask_interrupts core;
  check (Alcotest.list Alcotest.int) "only 11 before the re-mask" [ 11 ]
    (List.rev !got);
  Machine.unmask_interrupts core;
  check (Alcotest.list Alcotest.int) "arrival order preserved across re-mask"
    [ 11; 22; 33; 44 ] (List.rev !got)

let test_machine_timer_periodic () =
  let engine, machine = make_machine () in
  let core = Machine.core machine 0 in
  let ticks = ref 0 in
  Machine.set_kernel_handler core (fun v -> if v = Vectors.timer then incr ticks);
  Machine.timer_set_periodic machine ~core:0 ~hz:1000;
  Engine.run ~until:(Time.ms 10) engine;
  check Alcotest.int "10 ticks in 10ms at 1kHz" 10 !ticks

(* A tick the injector delayed past a re-arm must not deliver: it belongs
   to the old train.  The tick at 1ms is held until 1.5ms; the timer is
   reprogrammed to 1 Hz at 1.2ms, so its next tick is 1s away. *)
let test_machine_delayed_tick_dies_at_reprogram () =
  let engine, machine = make_machine () in
  let core = Machine.core machine 0 in
  let ticks = ref 0 in
  Machine.set_kernel_handler core (fun v -> if v = Vectors.timer then incr ticks);
  Machine.set_fault_hook machine (fun ~core:_ v ->
      if v = Vectors.timer then Machine.Delay (Time.us 500) else Machine.Deliver);
  Machine.timer_set_periodic machine ~core:0 ~hz:1000;
  Engine.at engine (Time.us 1200) (fun () ->
      Machine.timer_set_periodic machine ~core:0 ~hz:1);
  Engine.run ~until:(Time.ms 3) engine;
  check Alcotest.int "delayed tick suppressed after the re-arm" 0 !ticks;
  (* sanity: the same delayed train does deliver while it is armed *)
  Machine.timer_set_periodic machine ~core:0 ~hz:1000;
  Engine.run ~until:(Time.ms 6) engine;
  check Alcotest.bool "delayed ticks deliver while armed" true (!ticks > 0)

let test_machine_timer_reprogram () =
  let engine, machine = make_machine () in
  let core = Machine.core machine 0 in
  let ticks = ref 0 in
  Machine.set_kernel_handler core (fun v -> if v = Vectors.timer then incr ticks);
  Machine.timer_set_periodic machine ~core:0 ~hz:1000;
  Machine.timer_set_periodic machine ~core:0 ~hz:100;
  check Alcotest.int "hz readable" 100 (Machine.timer_hz core);
  Engine.run ~until:(Time.ms 100) engine;
  check Alcotest.int "only the 100Hz train survives" 10 !ticks

(* ---- UINTR semantics ---- *)

let test_uintr_senduipi_delivers () =
  let engine, machine = make_machine () in
  let ctx = Machine.uintr_create_ctx () in
  let got = ref [] in
  Machine.uintr_register_handler ctx ~uinv:Vectors.uintr_notification (fun _ ~uvec ->
      got := (Engine.now engine, uvec) :: !got);
  Machine.uintr_install machine ~core:3 ctx;
  Machine.senduipi machine ~src_core:0 ctx ~uvec:5;
  Engine.run engine;
  match !got with
  | [ (at, uvec) ] ->
      check Alcotest.int "uvec" 5 uvec;
      check Alcotest.int "delivery latency" (Costs.uipi_delivery_ns ~cross_numa:false) at
  | _ -> Alcotest.fail "expected one user interrupt"

let test_uintr_sn_suppresses_ipi () =
  let engine, machine = make_machine () in
  let ctx = Machine.uintr_create_ctx () in
  let got = ref 0 in
  Machine.uintr_register_handler ctx ~uinv:Vectors.uintr_notification (fun _ ~uvec:_ ->
      incr got);
  Machine.uintr_install machine ~core:3 ctx;
  Machine.uintr_set_sn ctx true;
  Machine.senduipi machine ~src_core:0 ctx ~uvec:5;
  Engine.run engine;
  check Alcotest.int "no delivery with SN set" 0 !got;
  check Alcotest.bool "but PIR is posted" true (Machine.uintr_pir_pending ctx)

let test_uintr_pending_pir_fires_on_install () =
  (* A parked application's UPID accumulates interrupts; they deliver when
     the kernel installs the context (thread switched in). *)
  let engine, machine = make_machine () in
  let ctx = Machine.uintr_create_ctx () in
  let got = ref [] in
  Machine.uintr_register_handler ctx ~uinv:Vectors.uintr_notification (fun _ ~uvec ->
      got := uvec :: !got);
  Machine.senduipi machine ~src_core:0 ctx ~uvec:7;
  Engine.run engine;
  check (Alcotest.list Alcotest.int) "nothing while uninstalled" [] !got;
  Machine.uintr_install machine ~core:1 ctx;
  check (Alcotest.list Alcotest.int) "recognised at install" [ 7 ] !got

let test_uintr_timer_delegation_needs_pir () =
  (* The §3.2 subtlety: delegating the timer vector alone is NOT enough —
     with an empty PIR the notification is dropped. *)
  let engine, machine = make_machine () in
  let ctx = Machine.uintr_create_ctx () in
  let fired = ref 0 in
  Machine.uintr_register_handler ctx ~uinv:Vectors.timer (fun _ ~uvec:_ -> incr fired);
  Machine.uintr_set_sn ctx true;
  Machine.uintr_install machine ~core:0 ctx;
  Machine.timer_set_periodic machine ~core:0 ~hz:1000;
  Engine.run ~until:(Time.ms 5) engine;
  check Alcotest.int "all notifications dropped: PIR empty" 0 !fired;
  check Alcotest.int "drops counted" 5
    (Machine.dropped_notifications (Machine.core machine 0))

let test_uintr_timer_delegation_with_self_post () =
  (* Full §3.2 protocol: SN=1, prime the PIR, re-post in the handler. *)
  let engine, machine = make_machine () in
  let ctx = Machine.uintr_create_ctx () in
  let fired = ref 0 in
  Machine.uintr_register_handler ctx ~uinv:Vectors.timer (fun _ ~uvec ->
      if uvec = Vectors.uvec_timer then begin
        incr fired;
        (* Listing 1 line 5: reset UPID.PIR for the next timer *)
        Machine.senduipi machine ~src_core:0 ctx ~uvec:Vectors.uvec_timer
      end);
  Machine.uintr_set_sn ctx true;
  Machine.uintr_install machine ~core:0 ctx;
  (* prime the PIR *)
  Machine.senduipi machine ~src_core:0 ctx ~uvec:Vectors.uvec_timer;
  Machine.timer_set_periodic machine ~core:0 ~hz:1000;
  Engine.run ~until:(Time.ms 10) engine;
  check Alcotest.int "every tick handled in user space" 10 !fired

let test_uintr_timer_delegation_without_repost_stops () =
  (* Forgetting the handler re-post: only the first tick arrives. *)
  let engine, machine = make_machine () in
  let ctx = Machine.uintr_create_ctx () in
  let fired = ref 0 in
  Machine.uintr_register_handler ctx ~uinv:Vectors.timer (fun _ ~uvec:_ -> incr fired);
  Machine.uintr_set_sn ctx true;
  Machine.uintr_install machine ~core:0 ctx;
  Machine.senduipi machine ~src_core:0 ctx ~uvec:Vectors.uvec_timer;
  Machine.timer_set_periodic machine ~core:0 ~hz:1000;
  Engine.run ~until:(Time.ms 10) engine;
  check Alcotest.int "only the first interrupt delivered" 1 !fired

(* A receiver switched out by another thread's install (what
   [Kmod.switch_to] does) gets nothing until it is switched back in. *)
let test_uintr_uninstall () =
  let engine, machine = make_machine () in
  let ctx = Machine.uintr_create_ctx () and other = Machine.uintr_create_ctx () in
  let got = ref 0 in
  Machine.uintr_register_handler ctx ~uinv:Vectors.uintr_notification (fun _ ~uvec:_ ->
      incr got);
  Machine.uintr_install machine ~core:1 ctx;
  Machine.uintr_install machine ~core:1 other;
  check Alcotest.bool "switched out" true
    (match Machine.uintr_installed machine ~core:1 with
    | Some c -> c == other
    | None -> false);
  Machine.senduipi machine ~src_core:0 ctx ~uvec:1;
  Engine.run engine;
  check Alcotest.int "no delivery when uninstalled" 0 !got;
  (* ... but it fires on re-install. *)
  Machine.uintr_install machine ~core:1 ctx;
  check Alcotest.int "pending fires on reinstall" 1 !got

let test_uintr_bad_uvec () =
  let _, machine = make_machine () in
  let ctx = Machine.uintr_create_ctx () in
  check Alcotest.bool "uvec > 63 rejected" true
    (try
       Machine.senduipi machine ~src_core:0 ctx ~uvec:64;
       false
     with Invalid_argument _ -> true)

(* Recognition delivers the set UIRR vectors highest first (x86 priority
   order), whatever order they were posted in. *)
let test_uintr_highest_vector_first () =
  let _, machine = make_machine () in
  let ctx = Machine.uintr_create_ctx () in
  let got = ref [] in
  Machine.uintr_register_handler ctx ~uinv:Vectors.uintr_notification (fun _ ~uvec ->
      got := uvec :: !got);
  (* not installed: the posts only set PIR bits *)
  List.iter (fun uvec -> Machine.senduipi machine ~src_core:0 ctx ~uvec) [ 1; 63; 0; 2 ];
  Machine.uintr_install machine ~core:0 ctx;
  check (Alcotest.list Alcotest.int) "63, 2, 1, 0" [ 63; 2; 1; 0 ] (List.rev !got);
  check Alcotest.int "four user interrupts" 4
    (Machine.user_interrupts_delivered (Machine.core machine 0))

(* A delegated timer tick (Listing 1) allocates nothing in the machine:
   recognition moves PIR into UIRR and runs the handler, whose re-post
   sets the PIR again.  10k ticks stay under a small tolerance (the boxed
   floats [Gc.minor_words] itself returns, and the engine's cohort). *)
let test_uintr_tick_zero_alloc () =
  let engine, machine = make_machine () in
  let ctx = Machine.uintr_create_ctx () in
  let fired = ref 0 in
  Machine.uintr_register_handler ctx ~uinv:Vectors.timer (fun _ ~uvec ->
      incr fired;
      Machine.senduipi machine ~src_core:0 ctx ~uvec);
  Machine.uintr_set_sn ctx true;
  Machine.uintr_install machine ~core:0 ctx;
  (* prime the PIR (SN set: no notification) *)
  Machine.senduipi machine ~src_core:0 ctx ~uvec:Vectors.uvec_timer;
  Machine.timer_set_periodic machine ~core:0 ~hz:1_000_000;
  Engine.run ~until:(Time.us 100) engine;
  let before = Gc.minor_words () in
  Engine.run ~until:(Time.us 10_100) engine;
  let words = Gc.minor_words () -. before in
  check Alcotest.int "every tick recognised" 10_100 !fired;
  if words >= 64.0 then Alcotest.failf "10k delegated timer ticks allocated %.0f minor words" words

(* ---- UINTR recognition against the 63-downto-0 reference walk ---- *)

(* What a scripted handler (or the test itself) does to the receiver. *)
type atom =
  | Post of int  (* senduipi: a notification follows unless SN is set *)
  | Reinstall  (* re-install the context: recognises a non-empty PIR at once *)
  | Set_sn of bool
  | Notify  (* a bare notification IPI, dropped if the PIR is empty *)

type script = {
  latched : int list;  (* posted and latched into UIRR before a handler exists *)
  posted : int list;  (* posted with SN set once the handler is registered *)
  sn : bool;  (* SN from then on *)
  start : atom list;  (* run after the context is re-installed *)
  calls : atom list array;  (* the k-th handler call runs [calls.(k)] *)
}

type receiver = {
  post : int -> unit;
  reinstall : unit -> unit;
  set_sn : bool -> unit;
  notify : unit -> unit;
}

let run_atom r = function
  | Post uvec -> r.post uvec
  | Reinstall -> r.reinstall ()
  | Set_sn b -> r.set_sn b
  | Notify -> r.notify ()

(* The handler both sides run: log the vector, then the next scripted
   actions.  The script is finite, so nesting and notifications end. *)
let scripted_handler sc r log ncalls uvec =
  log := uvec :: !log;
  let k = !ncalls in
  incr ncalls;
  if k < Array.length sc.calls then List.iter (run_atom r) sc.calls.(k)

(* The machine: every notification travels through the engine with the
   same latency, so they arrive in the order they were sent. *)
let run_machine sc =
  let engine, machine = make_machine () in
  let ctx = Machine.uintr_create_ctx () in
  let log = ref [] and ncalls = ref 0 in
  let r =
    {
      post = (fun uvec -> Machine.senduipi machine ~src_core:0 ctx ~uvec);
      reinstall = (fun () -> Machine.uintr_install machine ~core:0 ctx);
      set_sn = Machine.uintr_set_sn ctx;
      notify = (fun () -> Machine.send_ipi machine ~src:0 ~dst:0 Vectors.uintr_notification);
    }
  in
  Machine.uintr_set_sn ctx true;
  List.iter r.post sc.latched;
  r.reinstall ();
  Machine.uintr_register_handler ctx ~uinv:Vectors.uintr_notification (fun _ ~uvec ->
      scripted_handler sc r log ncalls uvec);
  List.iter r.post sc.posted;
  r.set_sn sc.sn;
  r.reinstall ();
  List.iter (run_atom r) sc.start;
  Engine.run engine;
  let c = Machine.core machine 0 in
  (List.rev !log, Machine.user_interrupts_delivered c, Machine.dropped_notifications c)

(* The reference: PIR and UIRR as [int64]s and recognition as the walk
   over every vector from 63 down to 0, testing the live UIRR at each;
   notifications wait in a FIFO. *)
let run_reference sc =
  let pir = ref 0L and uirr = ref 0L and sn = ref true and handler = ref None in
  let delivered = ref 0 and dropped = ref 0 and pending = Queue.create () in
  let rec recognize () =
    if !pir = 0L then incr dropped
    else begin
      uirr := Int64.logor !uirr !pir;
      pir := 0L;
      match !handler with
      | None -> ()
      | Some h ->
          for uvec = 63 downto 0 do
            let bit = Int64.shift_left 1L uvec in
            if Int64.logand !uirr bit <> 0L then begin
              uirr := Int64.logand !uirr (Int64.lognot bit);
              incr delivered;
              h uvec
            end
          done
    end
  and r =
    {
      post =
        (fun uvec ->
          pir := Int64.logor !pir (Int64.shift_left 1L uvec);
          if not !sn then Queue.push () pending);
      reinstall = (fun () -> if !pir <> 0L then recognize ());
      set_sn = (fun b -> sn := b);
      notify = (fun () -> Queue.push () pending);
    }
  in
  let log = ref [] and ncalls = ref 0 in
  List.iter r.post sc.latched;
  r.reinstall ();
  handler := Some (scripted_handler sc r log ncalls);
  List.iter r.post sc.posted;
  r.set_sn sc.sn;
  r.reinstall ();
  List.iter (run_atom r) sc.start;
  while not (Queue.is_empty pending) do
    Queue.pop pending;
    recognize ()
  done;
  (List.rev !log, !delivered, !dropped)

let recognition_script =
  let open QCheck.Gen in
  let uvec = frequency [ (3, oneofl [ 0; 1; 2; 30; 31; 32; 33; 62; 63 ]); (2, int_range 0 63) ] in
  let atom =
    frequency
      [
        (4, map (fun u -> Post u) uvec);
        (2, return Reinstall);
        (1, map (fun b -> Set_sn b) bool);
        (1, return Notify);
      ]
  in
  let vecs = list_size (int_range 0 6) uvec and atoms = list_size (int_range 0 3) atom in
  let gen =
    map
      (fun ((latched, posted, sn), (start, calls)) -> { latched; posted; sn; start; calls })
      (pair (triple vecs vecs bool) (pair atoms (array_size (int_range 0 12) atoms)))
  in
  let show_atom = function
    | Post u -> Printf.sprintf "post%d" u
    | Reinstall -> "reinstall"
    | Set_sn b -> Printf.sprintf "sn=%b" b
    | Notify -> "notify"
  in
  let show_atoms xs = "[" ^ String.concat " " (List.map show_atom xs) ^ "]" in
  let show_vecs xs = "{" ^ String.concat "," (List.map string_of_int xs) ^ "}" in
  QCheck.make gen ~print:(fun sc ->
      Printf.sprintf "latched %s posted %s sn=%b start %s calls %s" (show_vecs sc.latched)
        (show_vecs sc.posted) sc.sn (show_atoms sc.start)
        (String.concat " " (Array.to_list (Array.map show_atoms sc.calls))))

let prop_recognition_matches_reference =
  QCheck.Test.make ~name:"UINTR recognition matches the 63-downto-0 walk" ~count:300
    ~long_factor:20 recognition_script (fun sc -> run_machine sc = run_reference sc)

(* ---- SENDUIPI ---- *)

(* The sender side the runtimes use directly (they hold the receiver's
   context, so no UITT lookup sits on the preemption path): the PIR post,
   notification suppression while SN is set, and the uvec range check. *)
let test_senduipi_posts_suppresses_and_checks_range () =
  let engine, machine = make_machine () in
  let ctx = Machine.uintr_create_ctx () in
  let got = ref [] in
  Machine.uintr_register_handler ctx ~uinv:Vectors.uintr_notification (fun _ ~uvec ->
      got := uvec :: !got);
  Machine.uintr_install machine ~core:2 ctx;
  Machine.uintr_set_sn ctx true;
  Machine.senduipi machine ~src_core:0 ctx ~uvec:9;
  Engine.run engine;
  check Alcotest.bool "PIR posted" true (Machine.uintr_pir_pending ctx);
  check (Alcotest.list Alcotest.int) "no notification while SN is set" [] !got;
  Machine.uintr_set_sn ctx false;
  Machine.senduipi machine ~src_core:0 ctx ~uvec:3;
  Engine.run engine;
  check (Alcotest.list Alcotest.int) "one notification recognises both" [ 3; 9 ]
    (List.sort compare !got);
  check Alcotest.bool "PIR drained" false (Machine.uintr_pir_pending ctx);
  List.iter
    (fun uvec ->
      check Alcotest.bool (Printf.sprintf "uvec %d rejected" uvec) true
        (try
           Machine.senduipi machine ~src_core:0 ctx ~uvec;
           false
         with Invalid_argument _ -> true))
    [ -1; 64 ]

let suite =
  [
    Alcotest.test_case "topology: basics" `Quick test_topology_basics;
    Alcotest.test_case "topology: invalid" `Quick test_topology_invalid;
    Alcotest.test_case "costs: table 6 vs paper" `Quick test_costs_table6_close_to_paper;
    Alcotest.test_case "costs: qualitative orderings" `Quick test_costs_orderings;
    Alcotest.test_case "costs: ns conversions" `Quick test_costs_ns_conversions;
    Alcotest.test_case "machine: kernel IPI delivery" `Quick test_machine_kernel_ipi_delivery;
    Alcotest.test_case "machine: masking" `Quick test_machine_masking;
    Alcotest.test_case "machine: re-mask during replay keeps arrival order"
      `Quick test_machine_unmask_remask_keeps_arrival_order;
    Alcotest.test_case "machine: periodic timer" `Quick test_machine_timer_periodic;
    Alcotest.test_case "machine: delayed tick dies at reprogram" `Quick
      test_machine_delayed_tick_dies_at_reprogram;
    Alcotest.test_case "machine: timer reprogram" `Quick test_machine_timer_reprogram;
    Alcotest.test_case "uintr: senduipi delivers" `Quick test_uintr_senduipi_delivers;
    Alcotest.test_case "uintr: SN suppresses" `Quick test_uintr_sn_suppresses_ipi;
    Alcotest.test_case "uintr: pending fires on install" `Quick
      test_uintr_pending_pir_fires_on_install;
    Alcotest.test_case "uintr: timer delegation needs PIR" `Quick
      test_uintr_timer_delegation_needs_pir;
    Alcotest.test_case "uintr: timer delegation works with self-post" `Quick
      test_uintr_timer_delegation_with_self_post;
    Alcotest.test_case "uintr: missing re-post stops delivery" `Quick
      test_uintr_timer_delegation_without_repost_stops;
    Alcotest.test_case "uintr: uninstall" `Quick test_uintr_uninstall;
    Alcotest.test_case "uintr: bad uvec" `Quick test_uintr_bad_uvec;
    Alcotest.test_case "uintr: highest vector first" `Quick test_uintr_highest_vector_first;
    Alcotest.test_case "uintr: a delegated tick allocates nothing" `Quick
      test_uintr_tick_zero_alloc;
    QCheck_alcotest.to_alcotest prop_recognition_matches_reference;
    Alcotest.test_case "uintr: senduipi posts, suppresses, range-checks" `Quick
      test_senduipi_posts_suppresses_and_checks_range;
  ]
