module Time = Skyloft_sim.Time

(** Per-run result accounting: request latencies, slowdowns, drops.

    One [t] accumulates the outcome of one experiment run.  Latency is
    response time (completion - arrival); slowdown is response time divided
    by pure service time, the SLO metric used for the RocksDB experiment
    (§5.3).  Slowdowns are recorded scaled by 1000 (a slowdown of 1.0 is
    stored as 1000) to fit the integer histogram. *)

type t

val create : unit -> t

val record_request :
  t -> arrival:Time.t -> completion:Time.t -> service:Time.t -> unit
(** Record one finished request.  [completion >= arrival] and
    [service >= 0] are required; zero-service requests count towards
    [requests] (and the latency histogram) but record no slowdown
    sample, since slowdown is undefined at zero service. *)

val record_drop : t -> unit
(** Count one request that was killed instead of completing (deadline
    expiry).  Dropped requests contribute nothing to the latency
    histograms — they are accounted separately so "lost" work is always
    visible. *)

val requests : t -> int
(** Recorded requests: the count of {!latency}. *)

val drops : t -> int
val latency : t -> Histogram.t

val latency_p : t -> float -> Time.t
(** Latency percentile in ns. *)

val slowdown_p : t -> float -> float
(** Slowdown percentile as a ratio (descaled). *)
