(* Tests for the network substrate: RSS, rings, NIC, load generator. *)

module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Rng = Skyloft_sim.Rng
module Dist = Skyloft_sim.Dist
module Packet = Skyloft_net.Packet
module Rss = Skyloft_net.Rss
module Ring = Skyloft_net.Ring
module Nic = Skyloft_net.Nic
module Loadgen = Skyloft_net.Loadgen

let check = Alcotest.check

let test_rss_deterministic () =
  let q1 = Rss.queue_of_flow ~queues:8 12345 in
  let q2 = Rss.queue_of_flow ~queues:8 12345 in
  check Alcotest.int "same flow same queue" q1 q2;
  check Alcotest.bool "in range" true (q1 >= 0 && q1 < 8)

let test_rss_spreads () =
  (* Many flows should hit all queues roughly evenly. *)
  let counts = Array.make 4 0 in
  for flow = 0 to 9_999 do
    let q = Rss.queue_of_flow ~queues:4 flow in
    counts.(q) <- counts.(q) + 1
  done;
  Array.iter
    (fun c -> check Alcotest.bool "roughly uniform" true (c > 2_000 && c < 3_000))
    counts

let pkt ?(flow = 1) () = Packet.create ~arrival:0 ~service:100 ~flow ~kind:"req"

let test_ring_fifo_and_overflow () =
  let ring = Ring.create ~capacity:2 in
  check Alcotest.bool "push 1" true (Ring.push ring (pkt ~flow:1 ()));
  check Alcotest.bool "push 2" true (Ring.push ring (pkt ~flow:2 ()));
  check Alcotest.bool "push 3 drops" false (Ring.push ring (pkt ~flow:3 ()));
  check Alcotest.int "dropped" 1 (Ring.dropped ring);
  check Alcotest.int "pop fifo" 1
    (match Ring.pop ring with Some p -> p.Packet.flow | None -> -1);
  check Alcotest.int "pop fifo 2" 2
    (match Ring.pop ring with Some p -> p.Packet.flow | None -> -1);
  check (Alcotest.option Alcotest.unit) "empty" None (Option.map ignore (Ring.pop ring))

let test_ring_wraparound () =
  let ring = Ring.create ~capacity:3 in
  for round = 1 to 5 do
    check Alcotest.bool "push" true (Ring.push ring (pkt ~flow:round ()));
    check Alcotest.int "pop" round
      (match Ring.pop ring with Some p -> p.Packet.flow | None -> -1)
  done

let test_nic_delivery () =
  let engine = Engine.create () in
  let nic = Nic.create engine ~queues:2 () in
  let got = ref [] in
  for q = 0 to 1 do
    Nic.on_packet nic ~queue:q (fun p -> got := (q, p.Packet.flow, Engine.now engine) :: !got)
  done;
  let p = pkt ~flow:7 () in
  let expect_q = Rss.queue_of_flow ~queues:2 7 in
  Nic.rx nic p;
  Engine.run engine;
  match !got with
  | [ (q, flow, at) ] ->
      check Alcotest.int "steered by RSS" expect_q q;
      check Alcotest.int "flow" 7 flow;
      check Alcotest.int "after poll cost" 120 at
  | _ -> Alcotest.fail "expected one packet"

let test_nic_drops_without_consumer () =
  let engine = Engine.create () in
  let nic = Nic.create engine ~queues:1 ~ring_capacity:4 () in
  Nic.rx nic (pkt ());
  Engine.run engine;
  (* no consumer: packet popped into the void; no crash, no drop counted *)
  check Alcotest.int "received" 1 (Nic.received nic)

let test_nic_ring_overflow_counts () =
  let engine = Engine.create () in
  let nic = Nic.create engine ~queues:1 ~ring_capacity:2 () in
  (* No consumer drain scheduled yet at rx time: push 5 at one instant *)
  for i = 1 to 5 do
    Nic.rx nic (pkt ~flow:i ())
  done;
  check Alcotest.int "3 dropped" 3 (Nic.drops nic)

let test_loadgen_poisson_rate () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:13 in
  let count = ref 0 in
  Loadgen.poisson engine ~rng ~rate_rps:100_000.0 ~service:(Dist.Constant 100)
    ~duration:(Time.ms 100) (fun _ -> incr count);
  Engine.run engine;
  (* 100k rps for 100ms = ~10k arrivals; Poisson sd ~ 100 *)
  check Alcotest.bool "arrival count near 10k" true (abs (!count - 10_000) < 500)

let test_loadgen_poisson_stops () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:5 in
  let last = ref 0 in
  Loadgen.poisson engine ~rng ~rate_rps:1_000_000.0 ~service:(Dist.Constant 1)
    ~duration:(Time.ms 1) (fun p -> last := p.Packet.arrival);
  Engine.run engine;
  check Alcotest.bool "no arrivals after duration" true (!last <= Time.ms 1)

let test_loadgen_deterministic () =
  let arrivals seed =
    let engine = Engine.create () in
    let rng = Rng.create ~seed in
    let acc = ref [] in
    Loadgen.poisson engine ~rng ~rate_rps:10_000.0 ~service:(Dist.Constant 5)
      ~duration:(Time.ms 10) (fun p -> acc := p.Packet.arrival :: !acc);
    Engine.run engine;
    !acc
  in
  check (Alcotest.list Alcotest.int) "same seed, same arrivals" (arrivals 3) (arrivals 3);
  check Alcotest.bool "different seed differs" true (arrivals 3 <> arrivals 4)

let suite =
  [
    Alcotest.test_case "rss: deterministic" `Quick test_rss_deterministic;
    Alcotest.test_case "rss: spreads" `Quick test_rss_spreads;
    Alcotest.test_case "ring: fifo + overflow" `Quick test_ring_fifo_and_overflow;
    Alcotest.test_case "ring: wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "nic: delivery" `Quick test_nic_delivery;
    Alcotest.test_case "nic: no consumer" `Quick test_nic_drops_without_consumer;
    Alcotest.test_case "nic: overflow" `Quick test_nic_ring_overflow_counts;
    Alcotest.test_case "loadgen: poisson rate" `Slow test_loadgen_poisson_rate;
    Alcotest.test_case "loadgen: stops at duration" `Quick test_loadgen_poisson_stops;
    Alcotest.test_case "loadgen: deterministic" `Quick test_loadgen_deterministic;
  ]
