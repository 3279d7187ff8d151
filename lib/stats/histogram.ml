module Time = Skyloft_sim.Time

type t = {
  sub : int;  (* sub-buckets per power-of-two range; power of two *)
  k : int;  (* log2 sub *)
  counts : int array;
  mutable n : int;
  mutable min_v : int;
  mutable max_v : int;
}

let is_power_of_two x = x > 0 && x land (x - 1) = 0

let create ?(sub_buckets = 64) () =
  if not (is_power_of_two sub_buckets) then
    invalid_arg "Histogram.create: sub_buckets must be a power of two";
  let k =
    let rec go k = if 1 lsl k = sub_buckets then k else go (k + 1) in
    go 0
  in
  (* Groups 1..(62-k+1) cover all positive OCaml ints; group 0 is the exact
     linear region [0, sub). *)
  let groups = 63 - k + 1 in
  {
    sub = sub_buckets;
    k;
    counts = Array.make ((groups + 1) * sub_buckets) 0;
    n = 0;
    min_v = max_int;
    max_v = 0;
  }

let msb v =
  let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let index t v =
  if v < t.sub then v
  else begin
    let m = msb v in
    let group = m - t.k + 1 in
    let s = (v lsr (group - 1)) - t.sub in
    (group * t.sub) + s
  end

(* Inclusive upper bound of the values mapping to bucket [i]. *)
let bucket_upper t i =
  if i < t.sub then i
  else begin
    let group = i / t.sub and s = i mod t.sub in
    ((t.sub + s + 1) lsl (group - 1)) - 1
  end

let bucket_mid t i =
  if i < t.sub then float_of_int i
  else begin
    let group = i / t.sub and s = i mod t.sub in
    let lower = (t.sub + s) lsl (group - 1) in
    float_of_int (lower + bucket_upper t i) /. 2.0
  end

let record_n t v ~n =
  if v < 0 then invalid_arg "Histogram.record: negative value";
  if n < 0 then invalid_arg "Histogram.record_n: negative count";
  if n > 0 then begin
    t.counts.(index t v) <- t.counts.(index t v) + n;
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
  Array.iteri (fun i c -> if c > 0 then acc := !acc +. (float_of_int c *. bucket_mid t i))
    t.counts;
  !acc

let mean t = if t.n = 0 then 0.0 else total t /. float_of_int t.n

let percentile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Histogram.percentile: p out of range";
  if t.n = 0 then 0
  else begin
    let target =
      let exact = p /. 100.0 *. float_of_int t.n in
      max 1 (int_of_float (ceil exact))
    in
    let seen = ref 0 and result = ref t.max_v and found = ref false in
    (try
       Array.iteri
         (fun i c ->
           seen := !seen + c;
           if (not !found) && !seen >= target then begin
             result := min (bucket_upper t i) t.max_v;
             found := true;
             raise Exit
           end)
         t.counts
     with Exit -> ());
    !result
  end

let merge_into ~src ~dst =
  if src.sub <> dst.sub then invalid_arg "Histogram.merge_into: mismatched sub_buckets";
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.n <- dst.n + src.n;
  if src.n > 0 then begin
    if src.min_v < dst.min_v then dst.min_v <- src.min_v;
    if src.max_v > dst.max_v then dst.max_v <- src.max_v
  end

let reset t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.n <- 0;
  t.min_v <- max_int;
  t.max_v <- 0
