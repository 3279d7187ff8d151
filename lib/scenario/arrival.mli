module Time = Skyloft_sim.Time
module Rng = Skyloft_sim.Rng

(** Declarative arrival processes for the scenario DSL.

    An arrival value describes {e when} requests arrive; {!sampler}
    compiles it into a stateful next-arrival function fed to
    {!Skyloft_net.Loadgen.stream}.  Everything is seed-deterministic: the
    whole arrival stream is a pure function of the supplied {!Rng.t}.
    Rates are requests per second of virtual time. *)

type t =
  | Poisson of { rate_rps : float }
      (** memoryless open-loop arrivals at a constant rate — the §5.2/§5.3
          client *)
  | Mmpp of {
      rate_on : float;
      rate_off : float;
      mean_on : Time.t;
      mean_off : Time.t;
    }
      (** two-phase Markov-modulated Poisson process: exponentially
          distributed sojourns of mean [mean_on]/[mean_off] alternate
          between a burst phase at [rate_on] and a lull at [rate_off]
          (often 0) — the bursty load under which LibPreemptible shows
          scheduler conclusions flip *)
  | Diurnal of { segments : (Time.t * float) list }
      (** piecewise-constant rate curve: [(duration, rate)] segments
          played in order and cycled forever — a compressed day.  Zero
          rate segments (nights) are allowed as long as one segment is
          positive. *)

val validate : t -> unit
(** @raise Invalid_argument on non-positive Poisson rate, negative or
    all-zero MMPP/Diurnal rates, or non-positive sojourns/durations. *)

val mean_rate : t -> float
(** Long-run average arrival rate in rps (exact: phase- or
    segment-weighted). *)

val sampler : t -> Rng.t -> now:Time.t -> Time.t
(** [sampler t rng] compiles the process into a stateful next-arrival
    function: each call returns the absolute time of the next arrival at
    or after [now].  Phase changes between arrivals are simulated
    exactly (exponential gaps are redrawn at phase boundaries, which the
    memoryless property makes exact).  Never returns
    {!Skyloft_net.Loadgen.never}: the stream is stopped by its consumer
    (e.g. a request-count target).  A call allocates nothing.
    Runs [validate] first. *)

val rotate : int -> (Time.t * float) list -> (Time.t * float) list
(** [rotate n segments] starts the cycle [n] segments in — phase-shifts
    one diurnal curve across many tenants so their peaks don't align. *)
