module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Rng = Skyloft_sim.Rng
module Dist = Skyloft_sim.Dist

(** Open-loop load generator: the separate client machine of §5.3, issuing
    requests with Poisson arrivals regardless of server progress (the
    arrival process that makes tail latency honest). *)

val poisson :
  Engine.t ->
  rng:Rng.t ->
  rate_rps:float ->
  service:Dist.t ->
  ?start:Time.t ->
  duration:Time.t ->
  (Packet.t -> unit) ->
  unit
(** Schedule Poisson arrivals at [rate_rps] for [duration] starting at
    [start] (default now).  Each arrival gets a service demand drawn from
    [service], a random flow id and the kind ["req"], then is passed to
    the sink at its arrival time. *)

val never : Time.t
(** The time [stream]'s [next] returns to end the stream: no arrival
    ever comes ([max_int]). *)

val stream :
  Engine.t ->
  next:(now:Time.t -> Time.t) ->
  (Time.t -> unit) ->
  unit
(** Generalized open-loop driver: [next ~now] returns the absolute virtual
    time of the next arrival ({!never} ends the stream; times in the past
    are clamped to [now]), and the sink runs at each arrival time with
    that time.  A plain time, so an arrival allocates nothing.  [next] is consulted once per arrival, after the sink —
    exactly one arrival is in flight at a time, so a stream holds O(1)
    event-queue space regardless of how many arrivals it will emit.
    {!Skyloft_scenario.Arrival} compiles its declarative arrival processes
    (Poisson, MMPP on/off, diurnal curves) into [next] functions. *)

val retrying :
  Engine.t ->
  ?budget:int ->
  ?backoff:Time.t ->
  attempt:(int -> (bool -> unit) -> unit) ->
  (unit -> unit) ->
  unit
(** Client-side retry with capped exponential backoff: [attempt k done_]
    issues try number [k] (0-based) and must eventually call [done_ ok]
    exactly once (extra calls are ignored).  On failure the next try
    fires after [min 10ms (backoff * 2{^k})] (default base 100 µs), up
    to [budget] tries total (default 3); when the budget is exhausted
    [give_up] runs instead — so every request ends in exactly one of
    success or give-up, never silence.

    The 10 ms ceiling keeps large budgets sane: without it try 20 would
    wait 100 µs × 2{^20} ≈ 105 s of virtual time (and the shift itself
    would overflow past try 62).  A base above the ceiling waits the
    ceiling.  Used with per-task deadlines to keep request accounting
    lossless under injected faults. *)
