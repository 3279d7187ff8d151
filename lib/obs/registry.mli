module Time = Skyloft_sim.Time
module Histogram = Skyloft_stats.Histogram
module Timeseries = Skyloft_stats.Timeseries

(** Typed metrics registry: the single observability surface of the
    reproduction.

    Every subsystem (both runtimes, the core allocator, the kernel
    module, the NIC, the fault injector) registers its existing counters
    here instead of growing one getter per counter.  Registration is
    {e pull-based}: an instrument is a name, a label set, and a closure
    (or a live {!Histogram.t}/{!Timeseries.t}) that is read only when a
    snapshot is taken.  The registry therefore never advances the
    simulation, draws randomness, or schedules events — a run with the
    registry attached is byte-identical to one without it
    ([test/test_determinism.ml] and [skyloft_run obs-report]'s
    registry-on ≡ registry-off check enforce this).

    Names must match Prometheus conventions
    ([\[a-zA-Z_:\]\[a-zA-Z0-9_:\]*]); the [(name, labels)] pair must be
    unique.  Use the [core]/[app] label helpers for the two label
    dimensions the paper's evaluation slices by. *)

type t

type labels = (string * string) list
(** Label pairs, e.g. [[("core", "3"); ("app", "lc")]].  Order is
    preserved in exports; uniqueness is checked on the sorted pairs. *)

val core : int -> string * string
(** [core 3] is [("core", "3")]. *)

val app : string -> string * string
(** [app "lc"] is [("app", "lc")]. *)

val create : unit -> t

val counter : t -> ?help:string -> ?labels:labels -> string -> (unit -> int) -> unit
(** Register a monotonically-nondecreasing integer read at snapshot time.
    Raises [Invalid_argument] on an invalid name or a duplicate
    [(name, labels)]. *)

val gauge : t -> ?help:string -> ?labels:labels -> string -> (unit -> float) -> unit
(** Register an instantaneous value read at snapshot time. *)

val histogram : t -> ?help:string -> ?labels:labels -> string -> Histogram.t -> unit
(** Register a live histogram; snapshots materialise count, quantiles,
    mean, and max (exported as a Prometheus summary). *)

val series : t -> ?help:string -> ?labels:labels -> string -> Timeseries.t -> unit
(** Register a live step-function timeseries; snapshots materialise the
    last value plus its time-weighted mean and extremes. *)

val size : t -> int
(** Registered instruments. *)

(** {1 Snapshots} *)

(** Materialised value of one instrument at snapshot time. *)
type value =
  | Counter of int
  | Gauge of float
  | Summary of {
      count : int;
      mean : float;
      p50 : int;
      p90 : int;
      p99 : int;
      p999 : int;
      max : int;
    }
  | Level of { last : int; mean : float; min : int; max : int }

type sample
(** One instrument's name, help text, labels and value at a snapshot. *)

val sample_name : sample -> string
val sample_labels : sample -> labels

val snapshot : ?until:Time.t -> t -> sample list
(** Materialise every instrument now, in registration order grouped by
    name.  The result is isolated: later instrument updates do not change
    an already-taken snapshot.  [until] (default 0) closes the
    integration window for {!series} means. *)

val find : sample list -> ?labels:labels -> string -> value option
(** Exact [(name, labels)] lookup in a snapshot. *)

val to_prometheus : sample list -> string
(** Prometheus text exposition format (HELP/TYPE per metric name;
    counters and gauges as single samples, histograms as summaries with
    quantile labels plus _sum/_count, series as gauges).  Label values
    are escaped per the spec (backslash, double quote, newline). *)

