(* Structure-of-arrays indexed binary min-heap.  The heap proper is a
   preallocated [int array] with three machine words per node — time,
   sequence number, slot index — so sifting moves unboxed ints with no write
   barrier (a store into a statically typed [int array] has none, and each
   access is one load, where a Bigarray needs two).  Payloads and heap
   positions live in a parallel slab addressed by slot index, recycled
   through a free stack, so nothing here allocates in steady state.

   A slot is one-shot or pinned.  A one-shot slot carries one [schedule]d
   event: it leaves the free stack at the insert and returns at the pop.  A
   pinned slot ([pin]) belongs to one owner, an engine timer or cohort, for
   the owner's life: its payload is written once, [move]/[unqueue]
   reposition it with int stores only, and a pop leaves it allocated and
   unqueued (position -1).

   Deferred root removal: [pop_exn] leaves its node at the root as a hole
   whose time word is -1.  The next insert takes the hole and sifts down
   from the root, one short sift for a near-future key, where filling the
   hole at the pop and inserting at the bottom would sift twice.  Every read
   of the root first fills the hole with the last node ([settle]), as an
   eager pop would have.  Work below the root needs no fill: times are
   non-negative, so the hole's key sorts before every live key and a sift
   up stops under it. *)

type 'a t = {
  mutable heap : int array;  (* stride 3 per node: time, seq, slot *)
  mutable len : int;  (* heap nodes, the hole included *)
  mutable next_seq : int;
  (* slot slab, all of capacity [cap]: *)
  mutable pos : int array;  (* slot -> index of its node in [heap]; -1 unqueued *)
  mutable pinned : int array;  (* slot -> 1 while an owner holds it, else 0 *)
  mutable payloads : Obj.t array;
  mutable free : int array;  (* stack of free slot indices *)
  mutable free_top : int;
  mutable cap : int;
  mutable last_time : Time.t;  (* time of the event [pop_exn] last returned *)
}

let unit_obj = Obj.repr ()
let hole_time = -1

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
    pos = Array.make cap (-1);
    pinned = Array.make cap 0;
    payloads = Array.make cap unit_obj;
    free;
    free_top = cap;
    cap;
    last_time = -1;
  }

(* Only runs when every slot is taken, so the free stack is empty: refill it
   with just the new slots, descending for ascending hand-out.  The heap
   never holds more nodes than there are slots (a hole's slot was freed or
   unqueued by its pop), so it grows with them. *)
let grow t =
  let cap = t.cap in
  let new_cap = cap * 2 in
  let heap = Array.make (3 * new_cap) 0 in
  Array.blit t.heap 0 heap 0 (3 * t.len);
  let pos = Array.make new_cap (-1) and pinned = Array.make new_cap 0 in
  Array.blit t.pos 0 pos 0 cap;
  Array.blit t.pinned 0 pinned 0 cap;
  let payloads = Array.make new_cap unit_obj in
  Array.blit t.payloads 0 payloads 0 cap;
  let free = Array.make new_cap 0 in
  for i = 0 to new_cap - cap - 1 do bset free i (new_cap - 1 - i) done;
  t.heap <- heap;
  t.pos <- pos;
  t.pinned <- pinned;
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

let[@inline] has_hole t = t.len > 0 && bget t.heap 0 = hole_time

(* Put key (at, seq) into index [i] and sift it whichever way restores the
   order: up only when it beats its new parent. *)
let[@inline] resift t i ~at ~seq slot =
  if i > 0 && key_lt t ~at ~seq ((i - 1) / 2) then sift_up t i ~at ~seq slot
  else sift_down t i ~at ~seq slot

(* Remove node [i]: the last node takes its place. *)
let remove_at t i =
  let last = t.len - 1 in
  t.len <- last;
  if i < last then begin
    let b = 3 * last in
    resift t i ~at:(bget t.heap b) ~seq:(bget t.heap (b + 1)) (bget t.heap (b + 2))
  end

(* Fill a pending hole, as the pop that left it would have. *)
let[@inline] settle t = if has_hole t then remove_at t 0

(* Queue [slot] at (at, seq): into the hole if there is one, else at the
   bottom. *)
let insert t ~at ~seq slot =
  if has_hole t then sift_down t 0 ~at ~seq slot
  else begin
    let i = t.len in
    t.len <- i + 1;
    sift_up t i ~at ~seq slot
  end

let reserve_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let take_slot t payload =
  if t.free_top = 0 then grow t;
  t.free_top <- t.free_top - 1;
  let slot = bget t.free t.free_top in
  Array.unsafe_set t.payloads slot (Obj.repr payload);
  slot

(* Drop the payload reference, so a fired one-shot closure is not kept
   alive (or promoted) through the slab, and recycle the index. *)
let free_slot t slot =
  Array.unsafe_set t.payloads slot unit_obj;
  bset t.free t.free_top slot;
  t.free_top <- t.free_top + 1

let check_time at = if at < 0 then invalid_arg "Eventq.schedule: negative time"

let schedule t ~at payload =
  check_time at;
  insert t ~at ~seq:(reserve_seq t) (take_slot t payload)

let pin t payload =
  let slot = take_slot t payload in
  bset t.pinned slot 1;
  bset t.pos slot (-1);
  slot

let set_payload t slot payload = Array.unsafe_set t.payloads slot (Obj.repr payload)
let queued t slot = bget t.pos slot >= 0

let move t slot ~at ~seq =
  check_time at;
  let i = bget t.pos slot in
  if i < 0 then insert t ~at ~seq slot else resift t i ~at ~seq slot

let unqueue t slot =
  let i = bget t.pos slot in
  if i >= 0 then begin
    bset t.pos slot (-1);
    remove_at t i
  end

let unpin t slot =
  unqueue t slot;
  bset t.pinned slot 0;
  free_slot t slot

exception Empty

(* Zero-allocation pop for the engine's hot loop: the payload comes back
   bare, the event's timestamp is left in [last_time], and the root stays
   behind as the hole. *)
let pop_exn t =
  settle t;
  if t.len = 0 then raise Empty;
  let slot = bget t.heap 2 in
  let payload = Array.unsafe_get t.payloads slot in
  t.last_time <- bget t.heap 0;
  bset t.heap 0 hole_time;
  if bget t.pinned slot = 0 then free_slot t slot else bset t.pos slot (-1);
  Obj.obj payload

let last_time t = t.last_time

let next_time t =
  settle t;
  if t.len = 0 then -1 else bget t.heap 0

let precedes t ~at ~seq =
  settle t;
  t.len > 0
  && (let t0 = bget t.heap 0 in
      t0 < at || (t0 = at && bget t.heap 1 < seq))

let size t =
  settle t;
  t.len

let is_empty t = size t = 0

(* Every slot is exactly one of: free, queued (one heap node), or pinned
   and unqueued. *)
let check_invariants t =
  settle t;
  if t.len < 0 || t.len > t.cap then failwith "Eventq: len out of range";
  let state = Array.make t.cap 0 in
  for i = 0 to t.len - 1 do
    let slot = bget t.heap ((3 * i) + 2) in
    if bget t.heap (3 * i) < 0 then failwith "Eventq: hole survived a root read";
    if bget t.pos slot <> i then failwith "Eventq: slot position drifted";
    if state.(slot) <> 0 then failwith "Eventq: slot queued twice";
    state.(slot) <- 1;
    if i > 0 && node_lt t i ((i - 1) / 2) then failwith "Eventq: heap order"
  done;
  for k = 0 to t.free_top - 1 do
    let slot = bget t.free k in
    if state.(slot) <> 0 then failwith "Eventq: free slot in use";
    if bget t.pinned slot <> 0 then failwith "Eventq: free slot still pinned";
    state.(slot) <- 2
  done;
  for slot = 0 to t.cap - 1 do
    if state.(slot) = 0 && (bget t.pinned slot = 0 || bget t.pos slot <> -1) then
      failwith "Eventq: slot leaked"
  done
