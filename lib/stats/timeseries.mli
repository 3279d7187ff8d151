module Time = Skyloft_sim.Time

(** Step-function timeseries: (time, value) samples recorded in
    nondecreasing time order, holding each value until the next sample.

    Used for slowly-changing runtime state — per-application core counts
    from the allocator, queue depths — where a histogram would lose the
    time dimension.

    {b Window semantics.}  Storage is bounded: once [capacity] is
    exceeded the oldest sample is evicted per new sample recorded.  The
    retained ring is therefore a sliding {e window} over the most recent
    history — [to_list], [min_value] and [max_value] see only
    that window.  Eviction is not silent: the time span and value*dt
    integral of every evicted sample's holding interval are folded into
    constant-size accumulators, so [integrate] and [mean] remain exact
    over the {e full} history since the first sample, no matter how long
    the run (the million-request scale cells rely on this — a wrapped
    series must not skew utilization).  [truncated_span] exposes how much
    of that history has scrolled out of the window. *)

type t

val create : ?capacity:int -> unit -> t
(** Keep at most [capacity] (default 65,536) most recent samples.  The
    ring starts at [min capacity 64] slots and doubles on demand up to
    [capacity], so a series that records nothing costs a few hundred
    words; one that records a change per event pays for every sample,
    its ring's doublings included, whether or not anyone reads it (the
    runtime's queue-depth series exists only once watched). *)

val record : t -> at:Time.t -> int -> unit
(** Append a sample.  [at] must be >= the previous sample's time.
    Consecutive samples with the same value are collapsed. *)

val length : t -> int

val dropped : t -> int
(** Samples evicted from the window so far (their time-weighted
    contribution is preserved in [integrate]/[mean]). *)

val truncated_span : t -> Time.t
(** Virtual time covered by evicted samples: the distance between the
    first sample ever recorded and the start of the retained window.
    [0] until the series wraps. *)

val last : t -> (Time.t * int) option

val to_list : t -> (Time.t * int) list
(** Chronological (oldest first); the retained window only. *)

val mean : t -> until:Time.t -> float
(** Time-weighted mean of the step function from the {e first sample
    ever} to [until] — evicted samples included via the truncation
    accumulators, so a wrapped series still reports an unskewed mean.
    [0.0] when empty, so an unused series renders as zero in reports
    instead of propagating [nan] through every aggregate. *)

val integrate : t -> until:Time.t -> float
(** Time-weighted sum of the step function from the {e first sample
    ever} to [until]: [sum (value * dt)] over the covered span, in
    value·ns, evicted samples included.  Dividing by a duration gives
    e.g. mean granted cores (the utilization pass in [lib/obs] builds
    core-seconds this way).  [0.0] when empty. *)

val min_value : t -> int
val max_value : t -> int
(** Extremes over the retained window only; 0 when empty. *)
