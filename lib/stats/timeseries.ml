module Time = Skyloft_sim.Time

type t = {
  capacity : int;
  (* The ring: [min capacity 64] slots at first, doubled by [grow] up to
     [capacity]; samples are evicted only at [capacity]. *)
  mutable times : Time.t array;
  mutable values : int array;
  mutable head : int;  (* next write position *)
  mutable count : int;
  mutable dropped : int;
  (* Accounting for the truncated prefix: the step function over samples
     already evicted from the ring.  [trunc_span] is the virtual time the
     evicted samples covered, [trunc_weighted] their value*dt integral —
     enough for [integrate]/[mean] to stay exact over the full history
     without retaining the samples themselves.  [trunc_weighted] is a
     one-slot float array: a mutable float field of this mixed record
     would box a fresh float on every eviction. *)
  mutable trunc_span : Time.t;
  trunc_weighted : Float.Array.t;
}

let create ?(capacity = 65_536) () =
  if capacity <= 0 then invalid_arg "Timeseries.create: capacity must be positive";
  let len = Int.min capacity 64 in
  {
    capacity;
    times = Array.make len 0;
    values = Array.make len 0;
    head = 0;
    count = 0;
    dropped = 0;
    trunc_span = 0;
    trunc_weighted = Float.Array.make 1 0.0;
  }

let nth t i =
  (* i-th retained sample, oldest first *)
  let start = if t.count = t.capacity then t.head else 0 in
  let j = (start + i) mod Array.length t.times in
  (t.times.(j), t.values.(j))

let last t = if t.count = 0 then None else Some (nth t (t.count - 1))

(* Called with the ring full below [capacity], so [head] has wrapped to 0
   and the samples sit in slots [0, count).  A loop over arrays typed
   [int array] stores plain ints; [Array.blit] into a major-heap array
   would call the write barrier once per element. *)
let grow t =
  let len = Int.min t.capacity (2 * t.count) in
  let times : int array = Array.make len 0 and values : int array = Array.make len 0 in
  let old_times : int array = t.times and old_values : int array = t.values in
  for i = 0 to t.count - 1 do
    times.(i) <- old_times.(i);
    values.(i) <- old_values.(i)
  done;
  t.times <- times;
  t.values <- values;
  t.head <- t.count

(* Reads the newest slot ([head - 1]) in place: [last] allocates, and this
   runs on every queue-depth change.  The ring indices wrap with a compare,
   not [mod]: an integer division per sample is the cost of this path. *)
let record t ~at v =
  let len = Array.length t.times in
  let newest = (if t.head = 0 then len else t.head) - 1 in
  if t.count > 0 && at < t.times.(newest) then
    invalid_arg "Timeseries.record: time went backwards";
  if t.count = 0 || t.values.(newest) <> v then begin
    if t.count = t.capacity then begin
      (* Evicting the oldest sample: fold the interval it covered — up
         to the next retained sample (or the incoming one at capacity
         1) — into the truncated-prefix accumulators before the slot is
         overwritten.  At capacity the ring is [capacity] slots long. *)
      let t0 = t.times.(t.head) and v0 = t.values.(t.head) in
      let t1 =
        if t.capacity > 1 then
          let next = t.head + 1 in
          t.times.(if next = t.capacity then 0 else next)
        else at
      in
      if t1 > t0 then begin
        t.trunc_span <- t.trunc_span + (t1 - t0);
        Float.Array.set t.trunc_weighted 0
          (Float.Array.get t.trunc_weighted 0
          +. (float_of_int (t1 - t0) *. float_of_int v0))
      end;
      t.dropped <- t.dropped + 1
    end
    else begin
      if t.count = len then grow t;
      t.count <- t.count + 1
    end;
    t.times.(t.head) <- at;
    t.values.(t.head) <- v;
    let head = t.head + 1 in
    t.head <- (if head = Array.length t.times then 0 else head)
  end

let length t = t.count
let dropped t = t.dropped
let truncated_span t = t.trunc_span

let to_list t =
  let acc = ref [] in
  for i = t.count - 1 downto 0 do
    acc := nth t i :: !acc
  done;
  !acc

(* Shared step-function integration: (sum of value * dt, covered span). *)
let weighted_span t ~until =
  let weighted = ref 0.0 and span = ref 0.0 in
  for i = 0 to t.count - 1 do
    let start, v = nth t i in
    let stop = if i = t.count - 1 then Int.max until start else fst (nth t (i + 1)) in
    let stop = Int.min stop (Int.max until start) in
    if stop > start then begin
      let w = float_of_int (stop - start) in
      weighted := !weighted +. (w *. float_of_int v);
      span := !span +. w
    end
  done;
  (!weighted, !span)

let integrate t ~until =
  let weighted, _ = weighted_span t ~until in
  Float.Array.get t.trunc_weighted 0 +. weighted

let mean t ~until =
  if t.count = 0 then 0.0
  else begin
    let weighted, span = weighted_span t ~until in
    let weighted = Float.Array.get t.trunc_weighted 0 +. weighted
    and span = float_of_int t.trunc_span +. span in
    if span = 0.0 then float_of_int (snd (nth t (t.count - 1)))
    else weighted /. span
  end

let fold_values f init t =
  let acc = ref init in
  for i = 0 to t.count - 1 do
    acc := f !acc (snd (nth t i))
  done;
  !acc

let min_value t = if t.count = 0 then 0 else fold_values Int.min max_int t
let max_value t = if t.count = 0 then 0 else fold_values Int.max min_int t
