type t =
  | Constant of Time.t
  | Exponential of { mean : Time.t }
  | Bimodal of { p_short : float; short : Time.t; long : Time.t }
  | Pareto of { scale : Time.t; alpha : float; cap : Time.t }

let clamp x = if x < 1 then 1 else x

(* [Rng.uniform] rebuilt here from [Rng.bits53], bit for bit: a float
   returned across a module boundary is boxed, one built in place is not,
   so [sample] allocates nothing. *)
let[@inline] uniform rng = float_of_int (Rng.bits53 rng) *. 0x1p-53

let sample t rng =
  match t with
  | Constant d -> clamp d
  | Exponential { mean } ->
      clamp (int_of_float (-.float_of_int mean *. log (1.0 -. uniform rng)))
  | Bimodal { p_short; short; long } ->
      if uniform rng < p_short then clamp short else clamp long
  | Pareto { scale; alpha; cap } ->
      if scale < 1 || cap < scale || alpha <= 0.0 then
        invalid_arg "Dist.sample: Pareto needs 1 <= scale <= cap and alpha > 0";
      (* Inverse CDF on (0, 1]: 1 - uniform avoids u = 0 (infinite draw). *)
      let u = 1.0 -. uniform rng in
      let x = float_of_int scale /. (u ** (1.0 /. alpha)) in
      clamp (Int.min cap (int_of_float x))

let mean = function
  | Constant d -> float_of_int d
  | Exponential { mean } -> float_of_int mean
  | Bimodal { p_short; short; long } ->
      (p_short *. float_of_int short) +. ((1.0 -. p_short) *. float_of_int long)
  | Pareto { scale; alpha; cap } ->
      (* Exact mean of the capped distribution min(X, cap):
         E = int_{s}^{c} x f(x) dx + c * P(X > c)
           = alpha/(alpha-1) * s * (1 - (s/c)^(alpha-1)) + c * (s/c)^alpha
         and the alpha = 1 limit is s * (1 + ln (c/s)).  The cap makes the
         mean finite even for alpha <= 1, where the unbounded Pareto
         diverges. *)
      let s = float_of_int scale and c = float_of_int cap in
      if cap = scale then s
      else if Float.abs (alpha -. 1.0) < 1e-9 then s *. (1.0 +. log (c /. s))
      else
        (alpha /. (alpha -. 1.0) *. s *. (1.0 -. ((s /. c) ** (alpha -. 1.0))))
        +. (c *. ((s /. c) ** alpha))

let dispersive = Bimodal { p_short = 0.995; short = Time.us 4; long = Time.ms 10 }

let pareto_heavy =
  Pareto { scale = Time.us 1; alpha = 1.3; cap = Time.ms 5 }
