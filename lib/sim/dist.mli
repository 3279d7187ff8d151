(** Service-time and inter-arrival distributions used by the workloads.

    Distributions are immutable descriptions; [sample] draws from a supplied
    generator so the same description can feed several independent streams.
    All samples are virtual-time durations in nanoseconds. *)

type t =
  | Constant of Time.t  (** always the same duration *)
  | Exponential of { mean : Time.t }  (** light-tailed, memoryless *)
  | Bimodal of { p_short : float; short : Time.t; long : Time.t }
      (** with probability [p_short] the short mode, otherwise the long one;
          the paper's dispersive (99.5% 4 µs / 0.5% 10 ms) and RocksDB
          (50% 0.95 µs / 50% 591 µs) workloads are both of this form *)
  | Pareto of { scale : Time.t; alpha : float; cap : Time.t }
      (** bounded heavy tail: a Pareto with minimum [scale] and shape
          [alpha], clamped at [cap].  Requires [1 <= scale <= cap] and
          [alpha > 0].  The cap keeps the mean finite (and [mean] exact)
          even for [alpha <= 1], where the unbounded Pareto diverges —
          LibPreemptible-style heavy-tailed service times without
          unbounded single requests. *)

val sample : t -> Rng.t -> Time.t
(** Draw one duration.  Samples are clamped to be at least 1 ns. *)

val mean : t -> float
(** Expected value in nanoseconds (exact, not estimated; for [Pareto] the
    mean of the capped distribution [min (X, cap)], in closed form). *)


(** {1 Common workloads from the paper} *)

val dispersive : t
(** §5.2 synthetic workload: 99.5% short requests of 4 µs, 0.5% long
    requests of 10 ms. *)

val pareto_heavy : t
(** Heavy-tailed reference workload for the scenario experiments: Pareto
    with a 1 µs minimum, shape 1.3, capped at 5 ms (mean ~4.1 µs). *)
