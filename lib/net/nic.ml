module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Machine = Skyloft_hw.Machine
module Vectors = Skyloft_hw.Vectors

type mode =
  | Spin
  | Periodic of Time.t
  | Msi of { machine : Machine.t; cores : int array }

type t = {
  engine : Engine.t;
  rings : Ring.t array;
  consumers : (Packet.t -> unit) option array;
  mode : mode;
  mutable received : int;
  mutable loss : (Packet.t -> bool) option;  (* fault injection: wire loss *)
  mutable injected_drops : int;
  mutable poll_fns : (unit -> unit) array;
      (* one prebuilt spin-poll closure per queue, so Spin mode schedules
         the same closure per packet instead of allocating one *)
}

let drain t ~queue f =
  let ring = t.rings.(queue) in
  let rec go n =
    match Ring.pop ring with
    | Some pkt ->
        f pkt;
        go (n + 1)
    | None -> n
  in
  go 0

(* Spin mode's per-packet forwarding cost. *)
let poll_cost = 120

let create engine ~queues ?(ring_capacity = 1024) ?(mode = Spin) () =
  if queues <= 0 then invalid_arg "Nic.create: queues must be positive";
  (match mode with
  | Msi { cores; _ } when Array.length cores <> queues ->
      invalid_arg "Nic.create: Msi cores must match queue count"
  | _ -> ());
  let t =
    {
      engine;
      rings = Array.init queues (fun _ -> Ring.create ~capacity:ring_capacity);
      consumers = Array.make queues None;
      mode;
      received = 0;
      loss = None;
      injected_drops = 0;
      poll_fns = [||];
    }
  in
  t.poll_fns <-
    Array.init queues (fun queue () ->
        match Ring.pop t.rings.(queue) with
        | Some pkt -> (
            match t.consumers.(queue) with Some f -> f pkt | None -> ())
        | None -> ());
  (match mode with
  | Periodic interval ->
      for queue = 0 to queues - 1 do
        Engine.every engine ~period:interval (fun () ->
            (match t.consumers.(queue) with
            | Some f -> ignore (drain t ~queue f)
            | None -> ());
            true)
      done
  | Spin | Msi _ -> ());
  t

let on_packet t ~queue f =
  if queue < 0 || queue >= Array.length t.rings then invalid_arg "Nic.on_packet: bad queue";
  t.consumers.(queue) <- Some f

let rec rx t pkt =
  t.received <- t.received + 1;
  match t.loss with
  | Some lost when lost pkt -> t.injected_drops <- t.injected_drops + 1
  | Some _ | None -> rx_steer t pkt

and rx_steer t pkt =
  let queue = Rss.queue_of_flow ~queues:(Array.length t.rings) pkt.Packet.flow in
  let ring = t.rings.(queue) in
  let was_empty = Ring.is_empty ring in
  if Ring.push ring pkt then
    match t.mode with
    | Spin ->
        Engine.after t.engine poll_cost (Array.unsafe_get t.poll_fns queue)
    | Periodic _ -> ()
    | Msi { machine; cores } ->
        (* Interrupt coalescing: only an empty->nonempty transition posts an
           interrupt; the driver drains the whole ring per interrupt. *)
        if was_empty then begin
          let core = cores.(queue) in
          match Machine.uintr_installed machine ~core with
          | Some ctx -> Machine.senduipi machine ~src_core:core ctx ~uvec:Vectors.uvec_nic
          | None -> ()
        end

let set_loss t f = t.loss <- f
let queues t = Array.length t.rings
let drops t = Array.fold_left (fun acc ring -> acc + Ring.dropped ring) 0 t.rings
let received t = t.received
let injected_drops t = t.injected_drops

let register_metrics t reg =
  let module Registry = Skyloft_obs.Registry in
  Registry.counter reg "skyloft_nic_received_total"
    ~help:"Packets accepted into a receive ring" (fun () -> t.received);
  Registry.counter reg "skyloft_nic_drops_total"
    ~help:"Packets lost to full receive rings" (fun () -> drops t);
  Registry.counter reg "skyloft_nic_injected_drops_total"
    ~help:"Packets dropped by the injected wire-loss predicate" (fun () ->
      t.injected_drops)
