module Dist = Skyloft_sim.Dist

(** Declarative service shapes for the scenario DSL: {e what} one request
    costs, as a composition of compute stages.

    Shapes follow the ebsl benchmark suite's three archetypes —
    [benchmark_webserver] (one stage per request), [benchmark_chain]
    (sequential dependent stages), [benchmark_mixer] (a probabilistic mix
    of different request classes, including parallel fan-out) — and
    compile onto runtime task submissions through {!exec}, the one
    request compiler {!Scenario} and {!Placement} share. *)

type t =
  | Single of Dist.t  (** one compute stage per request *)
  | Chain of Dist.t list
      (** sequential stages: stage [i+1] is submitted when stage [i]
          completes (its own scheduling round trip each time); the
          request completes with the last stage *)
  | Fanout of { width : int; stage : Dist.t }
      (** parallel stages: [width] tasks submitted together, each with an
          independent draw from [stage]; the request completes when all
          of them have (a webserver handler fanning out to backends and
          joining) *)
  | Mix of (float * t) list
      (** weighted request classes: each arrival picks one branch with
          probability proportional to its weight *)

val validate : t -> unit
(** @raise Invalid_argument on an empty chain or mix, non-positive mix
    weights, or a fan-out width below 1 (recursively). *)

val mean_service : t -> float
(** Expected total compute demand of one request in ns (exact from
    {!Dist.mean}): chain stages and fan-out branches add their work.
    Note this is CPU demand, not latency — fan-out stages overlap in
    time on a multi-core runtime. *)

val exec :
  t -> Skyloft_sim.Rng.t ->
  spawn:(Skyloft_sim.Time.t -> (unit -> unit) -> unit) -> (unit -> unit) -> unit
(** [exec shape rng ~spawn k] issues one request: [spawn service k']
    submits one stage calling [k'] on completion; [k] runs when the last
    chain stage or the fan-out join completes.  Draws come from [rng]: a
    chain stage at the previous stage's completion, fan-out stages
    together in loop order, and one draw per mix, which picks a branch
    with probability proportional to its weight.  Deadlines and drop
    handling belong to the caller's [spawn].
    @raise Invalid_argument on an empty chain ({!validate} rejects it). *)
