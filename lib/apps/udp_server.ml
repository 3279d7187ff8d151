module Coro = Skyloft_sim.Coro
module Percpu = Skyloft.Percpu
module Nic = Skyloft_net.Nic
module Packet = Skyloft_net.Packet

module Vectors = Skyloft_hw.Vectors

let spawn_request rt app ~core (pkt : Packet.t) =
  ignore
    (Skyloft.Runtime_core.spawn (Percpu.runtime rt) app ~name:pkt.kind ~cpu:core
       ~arrival:pkt.arrival ~service:pkt.service
       (Coro.compute_then_exit pkt.service))

(* §6 extension: interrupt-driven reception.  The NIC (created with
   [Nic.Msi]) posts a user interrupt to the queue's core; this user-space
   driver drains the ring and spawns one thread per request. *)
let attach_irq rt app nic ~cores =
  if List.length cores <> Nic.queues nic then
    invalid_arg "Udp_server.attach_irq: queue count must match core count";
  let cores_arr = Array.of_list cores in
  let queue_of_core = Hashtbl.create 8 in
  Array.iteri (fun queue core -> Hashtbl.replace queue_of_core core queue) cores_arr;
  Percpu.register_uvec rt ~uvec:Vectors.uvec_nic (fun core ->
      match Hashtbl.find_opt queue_of_core core with
      | Some queue -> ignore (Nic.drain nic ~queue (spawn_request rt app ~core))
      | None -> ())

let attach rt app nic ~cores =
  if List.length cores <> Nic.queues nic then
    invalid_arg "Udp_server.attach: queue count must match core count";
  List.iteri
    (fun queue core -> Nic.on_packet nic ~queue (spawn_request rt app ~core))
    cores
