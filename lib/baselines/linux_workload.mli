module Time = Skyloft_sim.Time
module Rng = Skyloft_sim.Rng
module Dist = Skyloft_sim.Dist
module Summary = Skyloft_stats.Summary

(** The Linux-CFS baseline of Figure 7a: a request stream served by a
    pool of kernel threads (2× cores) pulling from a shared
    FIFO under the simulated CFS.  Optionally co-locates nice-19 batch
    hog threads (Figure 7c's Linux line). *)

type t

val run :
  Skyloft_hw.Machine.t ->
  cores:int list ->
  rng:Rng.t ->
  rate_rps:float ->
  service:Dist.t ->
  duration:Time.t ->
  ?batch_threads:int ->
  unit ->
  t

val summary : t -> Summary.t
val served : t -> int
val served_in_window : t -> int
(** Completions before the arrival cutoff (honest throughput under
    overload). *)

val offered : t -> int
val batch_busy_ns : t -> int
