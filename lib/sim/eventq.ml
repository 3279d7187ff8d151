(* Two-tier event queue keyed by (time, seq): a sorted run of near events
   over a binary overflow heap.  Both tiers are preallocated [int array]s
   with three machine words per node — time, sequence number, slot index —
   so moving a node moves unboxed ints with no write barrier (a store into
   a statically typed [int array] has none, and each access is one load,
   where a Bigarray needs two).  Payloads and node positions live in a
   parallel slab addressed by slot index, recycled through a free stack, so
   nothing here allocates in steady state.

   The run is sorted descending, earliest node last, so a pop from it is
   O(1).  An insert goes to the run when its place there lies within
   [budget] nodes of the earliest end — the run is shorter than [budget],
   or its [budget]-th earliest node sorts after the key — and shifts the
   earlier nodes up one index, at most [budget - 1] of them; any other key
   sifts into the heap.  A pop takes the earlier of the run's last node
   and the heap's root.  Keys are unique (each seq is used once), so which
   tier holds a key never changes the order: the queue pops exactly the
   sequence a single heap over the same keys would.

   A slot is one-shot or pinned.  A one-shot slot carries one [schedule]d
   event: it leaves the free stack at the insert and returns at the pop.  A
   pinned slot ([pin]) belongs to one owner, an engine timer or cohort, for
   the owner's life: its payload is written once, [move]/[unqueue]
   reposition it with int stores only, within the tier that holds it, and
   a pop leaves it allocated and unqueued. *)

(* How near the earliest end a run insert must land: a sweep over
   {16, 24, 32, 48} in DESIGN.md. *)
let budget = 32

type 'a t = {
  mutable run : int array;  (* stride 3 per node: time, seq, slot; descending *)
  mutable rlen : int;
  mutable heap : int array;  (* stride 3 per node, a binary min-heap *)
  mutable hlen : int;
  mutable next_seq : int;
  (* slot slab, all of capacity [cap]: *)
  mutable pos : int array;
      (* slot -> run index i as i, heap index i as -2 - i; -1 unqueued *)
  mutable pinned : int array;  (* slot -> 1 while an owner holds it, else 0 *)
  mutable payloads : Obj.t array;
  mutable free : int array;  (* stack of free slot indices *)
  mutable free_top : int;
  mutable cap : int;
  mutable last_time : Time.t;  (* time of the event [pop_until] last removed *)
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
    run = Array.make (3 * cap) 0;
    rlen = 0;
    heap = Array.make (3 * cap) 0;
    hlen = 0;
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
   with just the new slots, descending for ascending hand-out.  Neither tier
   holds more nodes than there are slots, so both grow with them. *)
let grow t =
  let cap = t.cap in
  let new_cap = cap * 2 in
  let run = Array.make (3 * new_cap) 0 and heap = Array.make (3 * new_cap) 0 in
  Array.blit t.run 0 run 0 (3 * t.rlen);
  Array.blit t.heap 0 heap 0 (3 * t.hlen);
  let pos = Array.make new_cap (-1) and pinned = Array.make new_cap 0 in
  Array.blit t.pos 0 pos 0 cap;
  Array.blit t.pinned 0 pinned 0 cap;
  let payloads = Array.make new_cap unit_obj in
  Array.blit t.payloads 0 payloads 0 cap;
  let free = Array.make new_cap 0 in
  for i = 0 to new_cap - cap - 1 do bset free i (new_cap - 1 - i) done;
  t.run <- run;
  t.heap <- heap;
  t.pos <- pos;
  t.pinned <- pinned;
  t.payloads <- payloads;
  t.free <- free;
  t.free_top <- new_cap - cap;
  t.cap <- new_cap

(* key (at, seq) sorts before node [j] of tier [a]: earlier time, or same
   time and earlier sequence number — the FIFO-at-same-instant
   determinism contract *)
let[@inline] key_lt (a : int array) j ~at ~seq =
  let tj = bget a (3 * j) in
  at < tj || (at = tj && seq < bget a ((3 * j) + 1))

(* node [j] of tier [a] sorts before key (at, seq) *)
let[@inline] node_before (a : int array) j ~at ~seq =
  let tj = bget a (3 * j) in
  tj < at || (tj = at && bget a ((3 * j) + 1) < seq)

(* node [i] of tier [a] sorts before node [j] *)
let[@inline] node_lt (a : int array) i j =
  key_lt a j ~at:(bget a (3 * i)) ~seq:(bget a ((3 * i) + 1))

(* Copy node [src] of tier [a] into index [dst]; its slot's position
   becomes [p]. *)
let[@inline] copy_node t (a : int array) ~src ~dst p =
  let bs = 3 * src and bd = 3 * dst in
  let slot = bget a (bs + 2) in
  bset a bd (bget a bs);
  bset a (bd + 1) (bget a (bs + 1));
  bset a (bd + 2) slot;
  bset t.pos slot p

(* Write key (at, seq) and [slot] at index [i] of tier [a]; the slot's
   position becomes [p]. *)
let[@inline] write_node t (a : int array) i ~at ~seq slot p =
  let b = 3 * i in
  bset a b at;
  bset a (b + 1) seq;
  bset a (b + 2) slot;
  bset t.pos slot p

(* ---- the run ---- *)

(* The gap is at [j + 1]: each node from [j] down that sorts before the
   key moves up one index, towards the earliest end, and the key fills the
   gap where that stops. *)
let rec run_rise t j ~at ~seq slot =
  if j >= 0 && node_before t.run j ~at ~seq then begin
    copy_node t t.run ~src:j ~dst:(j + 1) (j + 1);
    run_rise t (j - 1) ~at ~seq slot
  end
  else write_node t t.run (j + 1) ~at ~seq slot (j + 1)

(* The gap is at [j - 1]: each node from [j] up that the key sorts before
   moves down one index, towards the latest end. *)
let rec run_fall t j ~at ~seq slot =
  if j < t.rlen && key_lt t.run j ~at ~seq then begin
    copy_node t t.run ~src:j ~dst:(j - 1) (j - 1);
    run_fall t (j + 1) ~at ~seq slot
  end
  else write_node t t.run (j - 1) ~at ~seq slot (j - 1)

(* Re-key the run node at [i] in place: the key walks whichever way
   restores the order. *)
let[@inline] run_rekey t i ~at ~seq slot =
  if i + 1 < t.rlen && key_lt t.run (i + 1) ~at ~seq then run_fall t (i + 1) ~at ~seq slot
  else run_rise t (i - 1) ~at ~seq slot

(* Remove the run node at [i]: the earlier nodes move down one index. *)
let run_remove t i =
  let last = t.rlen - 1 in
  for j = i + 1 to last do
    copy_node t t.run ~src:j ~dst:(j - 1) (j - 1)
  done;
  t.rlen <- last

(* ---- the overflow heap ---- *)

(* Sift a hole at [i] towards the root, moving each later parent down one
   level, then drop the key into the hole. *)
let rec sift_up t i ~at ~seq slot =
  let parent = (i - 1) / 2 in
  if i > 0 && key_lt t.heap parent ~at ~seq then begin
    copy_node t t.heap ~src:parent ~dst:i (-2 - i);
    sift_up t parent ~at ~seq slot
  end
  else write_node t t.heap i ~at ~seq slot (-2 - i)

(* The same hole the other way: each earlier child moves up one level. *)
let rec sift_down t i ~at ~seq slot =
  let left = (2 * i) + 1 in
  if left >= t.hlen then write_node t t.heap i ~at ~seq slot (-2 - i)
  else
    let h = t.heap in
    let c = if left + 1 < t.hlen && node_lt h (left + 1) left then left + 1 else left in
    if key_lt h c ~at ~seq then write_node t h i ~at ~seq slot (-2 - i)
    else begin
      copy_node t h ~src:c ~dst:i (-2 - i);
      sift_down t c ~at ~seq slot
    end

(* Put key (at, seq) into heap index [i] and sift it whichever way restores
   the order: up only when it beats its new parent. *)
let[@inline] resift t i ~at ~seq slot =
  if i > 0 && key_lt t.heap ((i - 1) / 2) ~at ~seq then sift_up t i ~at ~seq slot
  else sift_down t i ~at ~seq slot

(* Remove heap node [i]: the last node takes its place. *)
let heap_remove t i =
  let last = t.hlen - 1 in
  t.hlen <- last;
  if i < last then begin
    let b = 3 * last in
    resift t i ~at:(bget t.heap b) ~seq:(bget t.heap (b + 1)) (bget t.heap (b + 2))
  end

(* ---- both tiers ---- *)

(* Queue [slot] at (at, seq): into the run when the [budget]-th earliest
   run node (if any) sorts after the key, else into the heap. *)
let insert t ~at ~seq slot =
  let n = t.rlen in
  if n < budget || key_lt t.run (n - budget) ~at ~seq then begin
    t.rlen <- n + 1;
    run_rise t (n - 1) ~at ~seq slot
  end
  else begin
    let i = t.hlen in
    t.hlen <- i + 1;
    sift_up t i ~at ~seq slot
  end

(* The earliest queued node is the run's last: the run is not empty and
   the heap is, or the heap's root sorts after that node. *)
let[@inline] run_leads t =
  let r = t.rlen - 1 in
  r >= 0
  && (t.hlen = 0
     || node_before t.run r ~at:(bget t.heap 0) ~seq:(bget t.heap 1))

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

let schedule t ~at payload =
  if at < 0 then invalid_arg "Eventq.schedule: negative time";
  insert t ~at ~seq:(reserve_seq t) (take_slot t payload)

let pin t payload =
  let slot = take_slot t payload in
  bset t.pinned slot 1;
  bset t.pos slot (-1);
  slot

let set_payload t slot payload = Array.unsafe_set t.payloads slot (Obj.repr payload)
let queued t slot = bget t.pos slot <> -1

let move t slot ~at ~seq =
  if at < 0 then invalid_arg "Eventq.move: negative time";
  let p = bget t.pos slot in
  if p >= 0 then run_rekey t p ~at ~seq slot
  else if p = -1 then insert t ~at ~seq slot
  else resift t (-2 - p) ~at ~seq slot

let unqueue t slot =
  let p = bget t.pos slot in
  if p <> -1 then begin
    bset t.pos slot (-1);
    if p >= 0 then run_remove t p else heap_remove t (-2 - p)
  end

let unpin t slot =
  unqueue t slot;
  bset t.pinned slot 0;
  free_slot t slot

(* Zero-allocation pop for the engine's hot loop, one comparison of the
   tiers' fronts per event: the payload comes back bare (or [none] when
   nothing is due) and the event's timestamp is left in [last_time]. *)
let pop_until t ~limit ~none =
  let slot =
    if run_leads t then begin
      let r = t.rlen - 1 in
      let at = bget t.run (3 * r) in
      if at > limit then -1
      else begin
        t.rlen <- r;
        t.last_time <- at;
        bget t.run ((3 * r) + 2)
      end
    end
    else if t.hlen > 0 && bget t.heap 0 <= limit then begin
      let slot = bget t.heap 2 in
      t.last_time <- bget t.heap 0;
      heap_remove t 0;
      slot
    end
    else -1
  in
  if slot < 0 then none
  else begin
    let payload = Array.unsafe_get t.payloads slot in
    if bget t.pinned slot = 0 then free_slot t slot else bset t.pos slot (-1);
    Obj.obj payload
  end

let last_time t = t.last_time

let precedes t ~at ~seq =
  if run_leads t then node_before t.run (t.rlen - 1) ~at ~seq
  else t.hlen > 0 && node_before t.heap 0 ~at ~seq

let size t = t.rlen + t.hlen
let is_empty t = size t = 0

(* Every slot is exactly one of: free, queued (one node in one tier), or
   pinned and unqueued. *)
let check_invariants t =
  if t.rlen < 0 || t.hlen < 0 || t.rlen + t.hlen > t.cap then
    failwith "Eventq: length out of range";
  let state = Array.make t.cap 0 in
  let visit (a : int array) i p =
    let slot = bget a ((3 * i) + 2) in
    if slot < 0 || slot >= t.cap then failwith "Eventq: slot out of range";
    if bget a (3 * i) < 0 then failwith "Eventq: negative time queued";
    if bget t.pos slot <> p then failwith "Eventq: slot position drifted";
    if state.(slot) <> 0 then failwith "Eventq: slot queued twice";
    state.(slot) <- 1
  in
  for i = 0 to t.rlen - 1 do
    visit t.run i i;
    if i > 0 && not (node_lt t.run i (i - 1)) then failwith "Eventq: run order"
  done;
  for i = 0 to t.hlen - 1 do
    visit t.heap i (-2 - i);
    if i > 0 && node_lt t.heap i ((i - 1) / 2) then failwith "Eventq: heap order"
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
