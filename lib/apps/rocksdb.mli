module Time = Skyloft_sim.Time
module Dist = Skyloft_sim.Dist

(** RocksDB UDP server model (§5.3, Figure 8b): 50% GETs at 0.95 µs and
    50% SCANs at 591 µs.  The heavy tail makes it the showcase for
    preemptive work stealing — without µs preemption a GET stuck behind a
    SCAN waits 600× its own service time, which is what the 99.9%
    slowdown metric exposes. *)

val service : Dist.t
val saturation_rps : cores:int -> float
