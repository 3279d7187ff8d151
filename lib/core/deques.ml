(* One Runqueue per managed core, indexed by the core's position, with a
   word whose bit [i] says deque [i] is non-empty.  Every
   mutation below keeps the word, so a victim scan is a few bit operations
   instead of a probe per deque.  Past [Bitmask.width] deques the word
   is not kept and the scan probes each deque in turn. *)

type t = {
  queues : Runqueue.t array;  (* by position *)
  cursor : int array;  (* per-thief scan start, -1 before its first hit *)
  mutable probes : int;  (* victim deques the last scan looked at *)
  mutable nonempty : int;  (* bit [i] set iff deque [i] is non-empty *)
  masked : bool;  (* whether [nonempty] is kept (at most 62 deques) *)
}

let probes t = t.probes
let cursor t i = t.cursor.(i)

let create n =
  {
    queues = Array.init n (fun _ -> Runqueue.create ());
    cursor = Array.make n (-1);
    probes = 0;
    nonempty = 0;
    masked = n <= Bitmask.width;
  }

let is_empty t i = Runqueue.is_empty t.queues.(i)

let sync t i =
  if t.masked then
    t.nonempty <-
      (if is_empty t i then t.nonempty land lnot (1 lsl i) else t.nonempty lor (1 lsl i))

let push_head t i task =
  Runqueue.push_head t.queues.(i) task;
  sync t i

let push_tail t i task =
  Runqueue.push_tail t.queues.(i) task;
  sync t i

let pop_head t i =
  let task = Runqueue.pop_head t.queues.(i) in
  sync t i;
  task

let pop_tail t i =
  let task = Runqueue.pop_tail t.queues.(i) in
  sync t i;
  task

let steal_half t ~from ~into =
  let moved = Runqueue.steal_half ~from:t.queues.(from) ~into:t.queues.(into) in
  sync t from;
  sync t into;
  moved

(* The position after [i] in the ring of deques: a compare, not a
   division. *)
let[@inline] next t i = if i + 1 = Array.length t.queues then 0 else i + 1

let start t ~self = if t.cursor.(self) >= 0 then t.cursor.(self) else next t self

(* Probe deque after deque from the start, skipping the thief. *)
let scan t ~self =
  let n = Array.length t.queues in
  let idx = ref (start t ~self) in
  let found = ref (-1) in
  let k = ref 0 in
  t.probes <- 0;
  while !found < 0 && !k < n do
    let i = !idx in
    if i <> self then begin
      t.probes <- t.probes + 1;
      if not (is_empty t i) then begin
        found := i;
        t.cursor.(self) <- next t i
      end
    end;
    idx := next t i;
    incr k
  done;
  !found

(* The scan's answer from the word: the first set bit at or after the
   start, else the first one before it.  The scan probes every deque from
   the start up to the hit except the thief's own. *)
let victim t ~self =
  if not t.masked then scan t ~self
  else begin
    let n = Array.length t.queues and s = start t ~self in
    let m = t.nonempty land lnot (1 lsl self) in
    if m = 0 then begin
      t.probes <- n - 1;
      -1
    end
    else begin
      let above = m land (-1 lsl s) in
      let hit = Bitmask.lowest (if above <> 0 then above else m) in
      (* positions from the start, wrapping *)
      let to_hit = if hit >= s then hit - s else hit + n - s in
      let to_self = if self >= s then self - s else self + n - s in
      t.probes <- (if to_self < to_hit then to_hit else to_hit + 1);
      t.cursor.(self) <- next t hit;
      hit
    end
  end
