module Time = Skyloft_sim.Time
module Dist = Skyloft_sim.Dist

(** Memcached model (§5.3, Figure 8a): an in-memory key-value store under
    Meta's USR workload — 99.8% GETs, 0.2% SETs, light-tailed service
    times.  Because the workload is light-tailed, preemption buys
    nothing: this is the experiment where Skyloft only has to match
    Shenango's work stealing. *)

val service : Dist.t
(** The USR mix as one distribution, for the load generator. *)

val saturation_rps : cores:int -> float
(** Offered load that saturates [cores] workers, before overheads. *)
