(* Structure-of-arrays indexed binary min-heap.  The heap proper is a
   preallocated [int array] with three machine words per node — time,
   sequence number, slot index — so sifting moves unboxed ints with no write
   barrier (a store into a statically typed [int array] has none, and each
   access is one load, where a Bigarray needs two).  Payloads and per-event
   bookkeeping (generation, heap position) live in a parallel slab addressed
   by slot index and recycled through a free stack, so
   [schedule]/[cancel]/[pop_exn] allocate nothing in steady state.  The
   slot -> heap-position word makes removal eager: [cancel] takes its node
   out of the heap at once, so the heap never holds a cancelled entry.

   A handle is an int packing (generation lsl slot_bits) lor slot.  The
   slot's generation is bumped when the event leaves the heap, so a stale
   handle — one whose event already fired or was cancelled — fails the
   generation check and [cancel] is a no-op, preserving the old boxed
   handles' cancel-after-fire semantics without keeping them alive. *)

type handle = int

let null : handle = -1
let is_null (h : handle) = h < 0

(* 2^25 events in flight before slot indices run out (schedule raises past
   that); the remaining bits hold the generation, masked on wraparound. *)
let slot_bits = 25
let slot_mask = (1 lsl slot_bits) - 1
let gen_mask = (1 lsl (Sys.int_size - 1 - slot_bits)) - 1

type 'a t = {
  mutable heap : int array;  (* stride 3 per node: time, seq, slot *)
  mutable len : int;  (* heap nodes; each owns exactly one slot *)
  mutable next_seq : int;
  (* slot slab, all of capacity [cap]: *)
  mutable gens : int array;  (* slot -> current generation *)
  mutable pos : int array;  (* slot -> index of its node in [heap], while heaped *)
  mutable payloads : Obj.t array;
  mutable free : int array;  (* stack of free slot indices *)
  mutable free_top : int;
  mutable cap : int;
  mutable last_time : Time.t;  (* time of the event [pop_exn] last returned *)
}

let unit_obj = Obj.repr ()

(* Annotated at [int array] so the compiler emits a plain load and a
   barrier-free store: at an unknown element type it would test for a
   float array and call [caml_modify]. *)
let[@inline] bget (a : int array) i = Array.unsafe_get a i
let[@inline] bset (a : int array) i (v : int) = Array.unsafe_set a i v

let create () =
  let cap = 16 in
  let free = Array.make cap 0 in
  (* Stack top is the highest index, so seed it descending: slots are then
     handed out in ascending order, which keeps dumps readable. *)
  for i = 0 to cap - 1 do bset free i (cap - 1 - i) done;
  {
    heap = Array.make (3 * cap) 0;
    len = 0;
    next_seq = 0;
    gens = Array.make cap 0;
    pos = Array.make cap 0;
    payloads = Array.make cap unit_obj;
    free;
    free_top = cap;
    cap;
    last_time = -1;
  }

let grow t =
  let cap = t.cap in
  if cap > slot_mask lsr 1 then
    invalid_arg "Eventq.schedule: too many events in flight";
  let new_cap = cap * 2 in
  let heap = Array.make (3 * new_cap) 0 in
  Array.blit t.heap 0 heap 0 (3 * t.len);
  let gens = Array.make new_cap 0 and pos = Array.make new_cap 0 in
  Array.blit t.gens 0 gens 0 cap;
  Array.blit t.pos 0 pos 0 cap;
  let payloads = Array.make new_cap unit_obj in
  Array.blit t.payloads 0 payloads 0 cap;
  (* grow only runs when every slot is live, so the free stack is empty:
     refill it with just the new slots, descending for ascending hand-out *)
  let free = Array.make new_cap 0 in
  for i = 0 to new_cap - cap - 1 do bset free i (new_cap - 1 - i) done;
  t.heap <- heap;
  t.gens <- gens;
  t.pos <- pos;
  t.payloads <- payloads;
  t.free <- free;
  t.free_top <- new_cap - cap;
  t.cap <- new_cap

(* node [i] sorts before node [j]: earlier time, or same time and earlier
   sequence number — the FIFO-at-same-instant determinism contract *)
let[@inline] node_lt t i j =
  let bi = 3 * i and bj = 3 * j in
  let ti = bget t.heap bi and tj = bget t.heap bj in
  ti < tj || (ti = tj && bget t.heap (bi + 1) < bget t.heap (bj + 1))

(* Copy node [src] into index [dst] and point its slot's position there. *)
let[@inline] move_node t ~src ~dst =
  let bs = 3 * src and bd = 3 * dst in
  let slot = bget t.heap (bs + 2) in
  bset t.heap bd (bget t.heap bs);
  bset t.heap (bd + 1) (bget t.heap (bs + 1));
  bset t.heap (bd + 2) slot;
  bset t.pos slot dst

(* Write key (at, seq) and [slot] at index [i]. *)
let[@inline] place t i ~at ~seq slot =
  let b = 3 * i in
  bset t.heap b at;
  bset t.heap (b + 1) seq;
  bset t.heap (b + 2) slot;
  bset t.pos slot i

(* key (at, seq) sorts before node [j] *)
let[@inline] key_lt t ~at ~seq j =
  let tj = bget t.heap (3 * j) in
  at < tj || (at = tj && seq < bget t.heap ((3 * j) + 1))

(* Sift a hole at [i] towards the root, moving each later parent down one
   level, then drop the key into the hole. *)
let rec sift_up t i ~at ~seq slot =
  let parent = (i - 1) / 2 in
  if i > 0 && key_lt t ~at ~seq parent then begin
    move_node t ~src:parent ~dst:i;
    sift_up t parent ~at ~seq slot
  end
  else place t i ~at ~seq slot

(* The same hole the other way: each earlier child moves up one level. *)
let rec sift_down t i ~at ~seq slot =
  let left = (2 * i) + 1 in
  if left >= t.len then place t i ~at ~seq slot
  else
    let c = if left + 1 < t.len && node_lt t (left + 1) left then left + 1 else left in
    if key_lt t ~at ~seq c then place t i ~at ~seq slot
    else begin
      move_node t ~src:c ~dst:i;
      sift_down t c ~at ~seq slot
    end

let reserve_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let schedule_key t ~at ~seq payload =
  if at < 0 then invalid_arg "Eventq.schedule: negative time";
  if t.free_top = 0 then grow t;
  t.free_top <- t.free_top - 1;
  let slot = bget t.free t.free_top in
  Array.unsafe_set t.payloads slot (Obj.repr payload);
  let i = t.len in
  t.len <- i + 1;
  sift_up t i ~at ~seq slot;
  (bget t.gens slot lsl slot_bits) lor slot

let schedule t ~at payload = schedule_key t ~at ~seq:(reserve_seq t) payload

(* A handle is valid while its slot's generation matches; anything else —
   negative, out of range, stale — refers to an event that already left the
   heap and must be ignored. *)
let live_slot t (h : handle) =
  if h < 0 then -1
  else
    let slot = h land slot_mask in
    if slot < t.cap && bget t.gens slot = h asr slot_bits then slot else -1

(* Release a removed node's slot: bump the generation so outstanding
   handles go stale, drop the payload reference, recycle the index. *)
let[@inline] free_slot t slot =
  bset t.gens slot ((bget t.gens slot + 1) land gen_mask);
  Array.unsafe_set t.payloads slot unit_obj;
  bset t.free t.free_top slot;
  t.free_top <- t.free_top + 1

(* Remove node [i]: the last node takes its place and sifts whichever way
   restores the order (up only when it beats its new parent), then the
   removed node's slot is freed. *)
let remove_at t i =
  let slot = bget t.heap ((3 * i) + 2) in
  let last = t.len - 1 in
  t.len <- last;
  if i < last then begin
    let b = 3 * last in
    let at = bget t.heap b and seq = bget t.heap (b + 1) and moved = bget t.heap (b + 2) in
    if i > 0 && key_lt t ~at ~seq ((i - 1) / 2) then sift_up t i ~at ~seq moved
    else sift_down t i ~at ~seq moved
  end;
  free_slot t slot

let cancel t (h : handle) =
  let slot = live_slot t h in
  if slot >= 0 then remove_at t (bget t.pos slot)

(* Cancel-then-schedule in one sift: the live node takes the key the
   insert would have got, (at, next seq), keeps its slot, and its handle
   moves to the slot's next generation as a cancel would make it. *)
let reschedule t (h : handle) ~at payload =
  let slot = live_slot t h in
  if slot < 0 then schedule t ~at payload
  else begin
    if at < 0 then invalid_arg "Eventq.schedule: negative time";
    Array.unsafe_set t.payloads slot (Obj.repr payload);
    let gen = (bget t.gens slot + 1) land gen_mask in
    bset t.gens slot gen;
    let seq = reserve_seq t in
    let i = bget t.pos slot in
    if i > 0 && key_lt t ~at ~seq ((i - 1) / 2) then sift_up t i ~at ~seq slot
    else sift_down t i ~at ~seq slot;
    (gen lsl slot_bits) lor slot
  end

exception Empty

(* Zero-allocation pop for the engine's hot loop: the payload comes back
   bare and the event's timestamp is left in [last_time]. *)
let pop_exn t =
  if t.len = 0 then raise Empty;
  let time = bget t.heap 0 in
  let payload = Array.unsafe_get t.payloads (bget t.heap 2) in
  remove_at t 0;
  t.last_time <- time;
  Obj.obj payload

let last_time t = t.last_time
let next_time t = if t.len = 0 then -1 else bget t.heap 0

let precedes t ~at ~seq =
  t.len > 0
  && (let t0 = bget t.heap 0 in
      t0 < at || (t0 = at && bget t.heap 1 < seq))

let size t = t.len
let is_empty t = t.len = 0

let check_invariants t =
  if t.len < 0 || t.len > t.cap then failwith "Eventq: len out of range";
  if t.free_top <> t.cap - t.len then failwith "Eventq: slot/heap leak";
  for i = 0 to t.len - 1 do
    if bget t.pos (bget t.heap ((3 * i) + 2)) <> i then
      failwith "Eventq: slot position drifted";
    if i > 0 && node_lt t i ((i - 1) / 2) then failwith "Eventq: heap order"
  done
