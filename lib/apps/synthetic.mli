module Time = Skyloft_sim.Time
module Engine = Skyloft_sim.Engine
module Rng = Skyloft_sim.Rng
module Dist = Skyloft_sim.Dist

(** The §5.2 synthetic workload driver: an open-loop Poisson stream of
    dispersive requests (99.5% at 4 µs, 0.5% at 10 ms) submitted to a
    centralized runtime, as the paper's dedicated load-generator core
    does. *)

val saturation_rps : cores:int -> float
(** Offered load that saturates [cores] workers, before overheads. *)

val drive :
  Skyloft.Runtime_core.t ->
  Skyloft.App.t ->
  Engine.t ->
  rng:Rng.t ->
  rate_rps:float ->
  duration:Time.t ->
  unit
