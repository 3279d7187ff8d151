
(* Bucket (g, s) is sub-bucket [s] of power-of-two group [g].  Group 0 is
   the exact linear region [0, sub); group g >= 1 holds the values whose
   most significant bit is [g + k - 1], split into [sub] linear slots.
   Groups 1..62-k cover all positive OCaml ints.  A group's count array
   is allocated the first time a value lands in it; until then its slot
   holds the shared empty array [absent].  An empty histogram shares the
   read-only table [untouched], whose slots are all [absent], and copies
   it the first time a group is allocated: most of a many-tenant cell's
   histograms never record, and cells run in parallel domains, so
   nothing ever writes [untouched]. *)
type t = {
  mutable groups : int array array;
  mutable n : int;
  mutable min_v : int;
  mutable max_v : int;
}

(* Sub-buckets per power-of-two range, and its log2. *)
let sub = 64
let k = 6
let absent : int array = [||]
let untouched = Array.make (63 - k) absent
let create () = { groups = untouched; n = 0; min_v = max_int; max_v = 0 }

(* Inclusive upper bound of the values mapping to bucket (g, s). *)
let bucket_upper g s = if g = 0 then s else ((sub + s + 1) lsl (g - 1)) - 1

let bucket_mid g s =
  if g = 0 then float_of_int s
  else begin
    let lower = (sub + s) lsl (g - 1) in
    float_of_int (lower + bucket_upper g s) /. 2.0
  end

(* Group [g]'s counts, allocated on first touch (the table too, on the
   first group). *)
let group t g =
  let counts = t.groups.(g) in
  if counts != absent then counts
  else begin
    if t.groups == untouched then t.groups <- Array.make (63 - k) absent;
    let counts = Array.make sub 0 in
    t.groups.(g) <- counts;
    counts
  end

let record_n t v ~n =
  if v < 0 then invalid_arg "Histogram.record: negative value";
  if n < 0 then invalid_arg "Histogram.record_n: negative count";
  if n > 0 then begin
    let g = if v < sub then 0 else Skyloft_sim.Bits.msb v - k + 1 in
    let s = if g = 0 then v else (v lsr (g - 1)) - sub in
    let counts = group t g in
    counts.(s) <- counts.(s) + n;
    t.n <- t.n + n;
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v
  end

let record t v = record_n t v ~n:1
let count t = t.n
let is_empty t = t.n = 0
let min_value t = if t.n = 0 then 0 else t.min_v
let max_value t = t.max_v

let total t =
  let acc = ref 0.0 in
  Array.iteri
    (fun g counts ->
      Array.iteri
        (fun s c -> if c > 0 then acc := !acc +. (float_of_int c *. bucket_mid g s))
        counts)
    t.groups;
  !acc

let mean t = if t.n = 0 then 0.0 else total t /. float_of_int t.n

let percentile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Histogram.percentile: p out of range";
  if t.n = 0 then 0
  else begin
    let target =
      let exact = p /. 100.0 *. float_of_int t.n in
      Int.max 1 (int_of_float (ceil exact))
    in
    let rec scan g s seen =
      if g = Array.length t.groups then t.max_v
      else begin
        let counts = t.groups.(g) in
        if s = Array.length counts then scan (g + 1) 0 seen
        else begin
          let seen = seen + counts.(s) in
          if seen >= target then Int.min (bucket_upper g s) t.max_v else scan g (s + 1) seen
        end
      end
    in
    scan 0 0 0
  end

let merge_into ~src ~dst =
  Array.iteri
    (fun g counts ->
      if counts != absent then begin
        let into = group dst g in
        Array.iteri (fun s c -> into.(s) <- into.(s) + c) counts
      end)
    src.groups;
  dst.n <- dst.n + src.n;
  if src.n > 0 then begin
    if src.min_v < dst.min_v then dst.min_v <- src.min_v;
    if src.max_v > dst.max_v then dst.max_v <- src.max_v
  end

