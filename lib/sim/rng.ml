(* The xoshiro256** state s0..s3 lives in one 32-byte [Bytes], read and
   written with the unboxed 64-bit bytes primitives: a mutable [int64]
   record field would box every state write, so each draw would allocate.
   The step below is inlined into every draw in this module, so the draws
   that return an [int] allocate nothing. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

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
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set t (8 * i) (splitmix64 state)
  done;
  t

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256** step: the next output, with the state advanced. *)
let[@inline] next t =
  let open Int64 in
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  set t 0 s0;
  set t 8 s1;
  set t 16 (logxor s2 tmp);
  set t 24 (rotl s3 45);
  result

let bits64 t = next t

let split t =
  (* Derive a child seed from the parent stream; the child is then expanded
     through splitmix64, which decorrelates it from the parent. *)
  create ~seed:(Int64.to_int (next t))

let copy = Bytes.copy

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.shift_right_logical (next t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let bits53 t = Int64.to_int (Int64.shift_right_logical (next t) 11)

(* 53 random bits into [0, 1), the standard double construction. *)
let[@inline] uniform t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) *. (1.0 /. 9007199254740992.0)

(* log of 0 would be -inf; [uniform] is in [0,1) so use 1-u in (0,1]. *)
let exponential_ns t ~mean = int_of_float (-.mean *. log (1.0 -. uniform t))
