module Time = Skyloft_sim.Time
module Rng = Skyloft_sim.Rng

type t =
  | Poisson of { rate_rps : float }
  | Mmpp of {
      rate_on : float;
      rate_off : float;
      mean_on : Time.t;
      mean_off : Time.t;
    }
  | Diurnal of { segments : (Time.t * float) list }

let validate = function
  | Poisson { rate_rps } ->
      if rate_rps <= 0.0 then invalid_arg "Arrival: Poisson rate must be positive"
  | Mmpp { rate_on; rate_off; mean_on; mean_off } ->
      if rate_on < 0.0 || rate_off < 0.0 then
        invalid_arg "Arrival: MMPP rates must be non-negative";
      if rate_on <= 0.0 && rate_off <= 0.0 then
        invalid_arg "Arrival: MMPP needs a positive rate in at least one phase";
      if mean_on <= 0 || mean_off <= 0 then
        invalid_arg "Arrival: MMPP phase sojourns must be positive"
  | Diurnal { segments } ->
      if segments = [] then invalid_arg "Arrival: Diurnal needs segments";
      List.iter
        (fun (dur, rate) ->
          if dur <= 0 then invalid_arg "Arrival: Diurnal segment durations must be positive";
          if rate < 0.0 then invalid_arg "Arrival: Diurnal rates must be non-negative")
        segments;
      if not (List.exists (fun (_, rate) -> rate > 0.0) segments) then
        invalid_arg "Arrival: Diurnal needs a positive rate in at least one segment"

let mean_rate = function
  | Poisson { rate_rps } -> rate_rps
  | Mmpp { rate_on; rate_off; mean_on; mean_off } ->
      let on = float_of_int mean_on and off = float_of_int mean_off in
      ((rate_on *. on) +. (rate_off *. off)) /. (on +. off)
  | Diurnal { segments } ->
      let weighted, span =
        List.fold_left
          (fun (w, s) (dur, rate) ->
            (w +. (rate *. float_of_int dur), s +. float_of_int dur))
          (0.0, 0.0) segments
      in
      weighted /. span

(* One exponential gap in ns at mean gap [mean] (1e9 / rate); at least
   1 ns so virtual time always advances.  Callers keep [mean] precomputed,
   so a draw passes an already boxed float and allocates nothing. *)
let exp_gap rng ~mean = Int.max 1 (Rng.exponential_ns rng ~mean)

(* Piecewise-constant-rate sampling, shared by MMPP and Diurnal: walk the
   phase timeline from [now]; in each phase draw an exponential gap at the
   phase's rate and accept it if it lands before the phase ends, otherwise
   advance to the phase boundary and redraw (memorylessness makes the
   redraw exact, not an approximation). *)
type phase = {
  mutable live : bool;  (* false: no phase entered yet, or the last one ended *)
  mutable rate : float;
  mutable mean_gap : float;  (* 1e9 /. rate, boxed once per phase *)
  mutable phase_end : Time.t;  (* absolute *)
}

(* [advance p ~at] rolls the process's own phase state forward and sets
   [p.rate] and [p.phase_end] for the phase starting at [at]. *)
let piecewise_sampler ~rng ~advance =
  let p = { live = false; rate = 0.0; mean_gap = 0.0; phase_end = 0 } in
  let rec go t =
    if not (p.live && p.phase_end > t) then begin
      advance p ~at:t;
      p.live <- true;
      p.mean_gap <- 1e9 /. p.rate
    end;
    if p.rate <= 0.0 then begin
      p.live <- false;
      go p.phase_end
    end
    else begin
      let gap = exp_gap rng ~mean:p.mean_gap in
      if t + gap <= p.phase_end then t + gap
      else begin
        p.live <- false;
        go p.phase_end
      end
    end
  in
  fun ~now -> go now

let sampler t rng =
  validate t;
  match t with
  | Poisson { rate_rps } ->
      let mean = 1e9 /. rate_rps in
      fun ~now -> now + exp_gap rng ~mean
  | Mmpp { rate_on; rate_off; mean_on; mean_off } ->
      let on = ref true in
      let mean_on = float_of_int mean_on and mean_off = float_of_int mean_off in
      (* The stream starts in the on phase; each [advance] call enters the
         phase in force at [at] and draws its sojourn. *)
      let first = ref true in
      piecewise_sampler ~rng ~advance:(fun p ~at ->
          if !first then first := false else on := not !on;
          p.rate <- (if !on then rate_on else rate_off);
          let mean = if !on then mean_on else mean_off in
          p.phase_end <- at + Int.max 1 (Rng.exponential_ns rng ~mean))
  | Diurnal { segments } ->
      let segs = Array.of_list segments in
      let idx = ref (-1) in
      piecewise_sampler ~rng ~advance:(fun p ~at ->
          idx := (!idx + 1) mod Array.length segs;
          let dur, rate = segs.(!idx) in
          p.rate <- rate;
          p.phase_end <- at + dur)

let rotate n = function
  | [] -> []
  | segments ->
      let len = List.length segments in
      let k = ((n mod len) + len) mod len in
      let rec split i acc = function
        | rest when i = k -> rest @ List.rev acc
        | x :: rest -> split (i + 1) (x :: acc) rest
        | [] -> assert false
      in
      split 0 [] segments
