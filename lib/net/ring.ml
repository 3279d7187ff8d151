(** Bounded receive ring: the shared ring buffer between the NIC/polling
    core and an isolated worker core (§3.5).  Overflow drops the packet,
    like a real rx ring under overload. *)

type t = {
  capacity : int;
  buf : Packet.t option array;
  mutable head : int;  (* next slot to pop *)
  mutable len : int;
  mutable dropped : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { capacity; buf = Array.make capacity None; head = 0; len = 0; dropped = 0 }

let is_empty t = t.len = 0
let dropped t = t.dropped

let push t pkt =
  if t.len = t.capacity then begin
    t.dropped <- t.dropped + 1;
    false
  end
  else begin
    t.buf.((t.head + t.len) mod t.capacity) <- Some pkt;
    t.len <- t.len + 1;
    true
  end

let pop t =
  if t.len = 0 then None
  else begin
    let slot = t.buf.(t.head) in
    t.buf.(t.head) <- None;
    t.head <- (t.head + 1) mod t.capacity;
    t.len <- t.len - 1;
    slot
  end
