module Time = Skyloft_sim.Time


type t = {
  latency : Histogram.t;
  slowdown : Histogram.t;
  mutable drops : int;
}

let create () =
  {
    latency = Histogram.create ();
    slowdown = Histogram.create ();
    drops = 0;
  }

let record_request t ~arrival ~completion ~service =
  if completion < arrival then invalid_arg "Summary.record_request: completion < arrival";
  if service < 0 then invalid_arg "Summary.record_request: negative service";
  let response = completion - arrival in
  Histogram.record t.latency response;
  (* Slowdown is undefined for zero-service requests; they still count
     towards [requests] so completion reconciliation holds. *)
  if service > 0 then begin
    let slowdown_x1000 = response * 1000 / service in
    Histogram.record t.slowdown (Int.max 1000 slowdown_x1000)
  end

let record_drop t = t.drops <- t.drops + 1
let requests t = Histogram.count t.latency
let drops t = t.drops
let latency t = t.latency
let latency_p t p = Histogram.percentile t.latency p
let slowdown_p t p = float_of_int (Histogram.percentile t.slowdown p) /. 1000.0
