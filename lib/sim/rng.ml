type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

(* splitmix64, used to expand the seed into xoshiro state (reference
   initialization recommended by the xoshiro authors). *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ~seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  { s0; s1; s2; s3 }

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let bits64 t =
  let open Int64 in
  let result = mul (rotl (mul t.s1 5L) 7) 9L in
  let tmp = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t =
  (* Derive a child seed from the parent stream; the child is then expanded
     through splitmix64, which decorrelates it from the parent. *)
  let seed = Int64.to_int (bits64 t) in
  create ~seed

let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.shift_right_logical (bits64 t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let uniform t =
  (* 53 random bits into [0, 1), the standard double construction. *)
  let x = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float x *. (1.0 /. 9007199254740992.0)

let float t bound = uniform t *. bound
let exponential t ~mean =
  let u = uniform t in
  (* log of 0 would be -inf; uniform is in [0,1) so use 1-u in (0,1]. *)
  -.mean *. log (1.0 -. u)
