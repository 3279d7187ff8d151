module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Rng = Skyloft_sim.Rng
module Dist = Skyloft_sim.Dist

let poisson engine ~rng ~rate_rps ~service ?start ~duration sink =
  if rate_rps <= 0.0 then invalid_arg "Loadgen.poisson: rate must be positive";
  let start = match start with Some s -> s | None -> Engine.now engine in
  let mean_gap_ns = 1e9 /. rate_rps in
  let stop = start + duration in
  (* One reusable timer re-armed in place per arrival — the open-loop
     stream allocates no closure per request. *)
  let at = ref 0 in
  let tm = Engine.timer engine ignore in
  Engine.set_callback tm (fun () ->
      let arrival = !at in
      let pkt =
        Packet.create ~arrival
          ~service:(Dist.sample service rng)
          ~flow:(Rng.int rng 1_000_000) ~kind:"req"
      in
      sink pkt;
      let gap = Int.max 1 (Rng.exponential_ns rng ~mean:mean_gap_ns) in
      let next = arrival + gap in
      if next < stop then begin
        at := next;
        Engine.arm tm ~at:next
      end);
  let first = start + Int.max 1 (Rng.exponential_ns rng ~mean:mean_gap_ns) in
  if first < stop then begin
    at := first;
    Engine.arm tm ~at:first
  end

let never = max_int

let stream engine ~next emit =
  let tm = Engine.timer engine ignore in
  let at = ref 0 in
  let arm_next ~now =
    let t = next ~now in
    if t <> never then begin
      let t = Int.max t now in
      at := t;
      Engine.arm tm ~at:t
    end
  in
  Engine.set_callback tm (fun () ->
      let fired_at = !at in
      emit fired_at;
      arm_next ~now:fired_at);
  arm_next ~now:(Engine.now engine)

(* The retry ceiling. *)
let max_backoff = Time.ms 10

let retrying engine ?(budget = 3) ?(backoff = Time.us 100) ~attempt give_up =
  if budget < 1 then invalid_arg "Loadgen.retrying: budget must be >= 1";
  if backoff < 0 then invalid_arg "Loadgen.retrying: backoff must be >= 0";
  let rec go k =
    (* One outcome per attempt: a late failure signal after a success (or
       a duplicate callback) must not trigger a spurious retry. *)
    let finished = ref false in
    attempt k (fun ok ->
        if not !finished then begin
          finished := true;
          if not ok then
            if k + 1 < budget then
              (* the shift saturates well before it could overflow: past
                 2^20 the ceiling has long since taken over *)
              let wait = Int.min max_backoff (backoff * (1 lsl Int.min k 20)) in
              Engine.after engine wait (fun () -> go (k + 1))
            else give_up ()
        end)
  in
  go 0
