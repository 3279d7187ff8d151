(** Log-linear latency histogram (HdrHistogram-style).

    Values are non-negative integers (nanoseconds in this repository).
    Buckets are arranged as 64 power-of-two ranges split into 64 linear
    sub-buckets each, giving a worst-case relative error of 1/64 (~1.6%),
    far below the run-to-run noise of any scheduling experiment.
    Recording is O(1).  A histogram allocates only the power-of-two
    ranges it holds: an empty histogram allocates only its record, the
    first value recorded allocates the 57-slot range table, and each
    range allocates one 64-word array the first time a value lands in
    it.  Recording is allocation-free after that. *)

type t

val create : unit -> t

val record : t -> int -> unit
(** Record one value.  Negative values raise [Invalid_argument]. *)

val record_n : t -> int -> n:int -> unit
(** Record the same value [n] times. *)

val count : t -> int
val is_empty : t -> bool
val min_value : t -> int
(** Smallest recorded value (exact).  0 when empty. *)

val max_value : t -> int
(** Largest recorded value (exact).  0 when empty. *)

val mean : t -> float
(** Approximate mean from bucket midpoints.  0 when empty. *)

val percentile : t -> float -> int
(** [percentile t p] for [p] in [\[0, 100\]]: smallest bucket upper bound
    such that at least [p]% of recorded values are at or below it.
    0 when empty. *)

val merge_into : src:t -> dst:t -> unit
