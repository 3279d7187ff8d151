module Dist = Skyloft_sim.Dist

(** Declarative service shapes for the scenario DSL: {e what} one request
    costs, as a composition of compute stages.

    Shapes follow the ebsl benchmark suite's three archetypes —
    [benchmark_webserver] (one stage per request), [benchmark_chain]
    (sequential dependent stages), [benchmark_mixer] (a probabilistic mix
    of different request classes, including parallel fan-out) — and
    compile onto runtime task submissions through {!exec}, the request
    compiler {!Placement} uses and the reference semantics of the stage
    programs {!Scenario} runs. *)

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
    handling belong to the caller's [spawn].  {!Placement} issues its
    requests through it; it is also the reference semantics of the
    stage programs below.
    @raise Invalid_argument on an empty chain ({!validate} rejects it). *)

(** {1 Stage programs}

    {!exec} builds a closure per chain stage and per fan-out join.  A
    stage program issues the same requests from a shape compiled once,
    keeping each request with more than one stage as a row of ints in a
    {!table}: it makes the same draws from the RNG, in {!exec}'s order
    (the mix picks, then a chain's first stage or every fan-out stage at
    issue, and each further chain stage at the previous one's
    completion), submits the same stages in the same order, and
    completes each request at the same stage completion.  {!Scenario}
    issues its requests this way. *)

type program
(** A shape with its mixes resolved to leaf ids: chains (one stage for
    [Single] and a fan-out of width 1) and fan-out joins. *)

val compile : t -> program
(** Never raises: an invalid shape compiles to a program that must not
    run, so run only the program of a shape {!validate} accepts. *)

type table
(** The in-flight requests of one cell, shared by its programs: a slot
    per request with more than one stage, reused through a free-slot
    stack; it grows on demand from empty. *)

val table : unit -> table

val start :
  program -> table -> Skyloft_sim.Rng.t ->
  submit:(arrival:Skyloft_sim.Time.t -> service:Skyloft_sim.Time.t -> int -> unit) ->
  Skyloft_sim.Time.t -> unit
(** [start p tb rng ~submit at] issues one request arriving at [at]:
    [submit ~arrival:at ~service key] per stage placed now, where [key]
    is the request's slot, or [-1] for a request of one stage (which
    takes no slot). *)

val step :
  program -> table -> Skyloft_sim.Rng.t ->
  submit:(arrival:Skyloft_sim.Time.t -> service:Skyloft_sim.Time.t -> int -> unit) ->
  arrival:Skyloft_sim.Time.t -> int -> bool
(** [step p tb rng ~submit ~arrival key]: a stage of the request [key]
    (as passed to [submit]) completed.  Submits a chain's next stage, or
    counts down a join; [true] iff the request is complete, its slot
    back on the free stack. *)

val in_flight : table -> int
(** Slots not on the free stack: the requests in flight with more than
    one stage.
    @raise Failure if a slot is on the free stack twice (or the stack is
    otherwise corrupt). *)
